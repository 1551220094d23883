(** Bi-directional constant-access iterators (paper, Section 5).

    An iterator ranges over a conceptual finite sequence u₁, …, u_l and keeps
    a position i ∈ {0, 1, …, l}, where position 0 is the distinguished ⊥
    state. [current] returns [None] exactly at ⊥; [next] and [prev] move
    cyclically through the l + 1 positions, so a full enumeration is: start
    at ⊥ (or [reset]), call [next] then [current] until ⊥ comes around again.

    A handle is a record of five closures, built once per enumerator:
    the enumerators of {!Provenance.Prov_circuit} and [Fo_enum] are one
    handle over a tree of mutable frames, which carry the sums, products
    and permanents of Section 5 and build no closure per answer. This
    module keeps the handle type, the full-pass drains and the global
    work counter that every movement bumps. *)

type 'a t = {
  current : unit -> 'a option;
  next : unit -> unit;
  prev : unit -> unit;
  reset : unit -> unit;  (** return to the ⊥ position *)
  is_empty : unit -> bool;  (** true iff the sequence has no elements *)
}

(** Global work counter: every primitive movement of every cursor bumps
    it once, so the tick delta across one top-level [next] measures
    the touched work of producing one element — the observable behind the
    constant-delay claims of Theorems 22/24. A plain increment, cheap
    enough to leave unconditional. *)
let ticks = ref 0

let tick () = incr ticks

let current t = t.current ()
let next t = t.next ()
let prev t = t.prev ()
let reset t = t.reset ()
let is_empty t = t.is_empty ()

(** Drain an iterator into a list, starting from ⊥ (for tests: this is a
    full enumeration pass, not a constant-time operation). *)
let to_list t =
  t.reset ();
  let acc = ref [] in
  let continue = ref true in
  while !continue do
    t.next ();
    match t.current () with
    | Some v -> acc := v :: !acc
    | None -> continue := false
  done;
  List.rev !acc

(** Drain backwards from ⊥ using [prev] (tests the bi-directionality). *)
let to_list_rev t =
  t.reset ();
  let acc = ref [] in
  let continue = ref true in
  while !continue do
    t.prev ();
    match t.current () with
    | Some v -> acc := v :: !acc
    | None -> continue := false
  done;
  List.rev !acc

(** Number of elements (full pass). *)
let length t = List.length (to_list t)
