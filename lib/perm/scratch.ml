(** Reusable scratch buffers for the what-if permanent reads
    ([Segtree.perm_with], [Ring.perm_with], [Finite.perm_with]): one
    owner (a dynamic circuit) lends them to whichever permanent it is
    reading, so a read allocates nothing once the buffers have grown to
    the largest request and no permanent carries buffers of its own. *)

type 'a t = { fill : 'a; mutable vals : 'a array; mutable ints : int array }

let create fill = { fill; vals = [||]; ints = [||] }

(** A value buffer of at least [n] slots (contents unspecified). *)
let vals s n =
  if Array.length s.vals < n then s.vals <- Array.make (max n (2 * Array.length s.vals)) s.fill;
  s.vals

(** An int buffer of at least [n] slots (contents unspecified). *)
let ints s n =
  if Array.length s.ints < n then s.ints <- Array.make (max n (2 * Array.length s.ints)) 0;
  s.ints
