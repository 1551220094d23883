(** Bi-directional constant-access iterators (paper, Section 5).

    An iterator ranges over a conceptual finite sequence u₁, …, u_l and keeps
    a position i ∈ {0, 1, …, l}, where position 0 is the distinguished ⊥
    state. [current] returns [None] exactly at ⊥; [next] and [prev] move
    cyclically through the l + 1 positions, so a full enumeration is: start
    at ⊥ (or [reset]), call [next] then [current] until ⊥ comes around again.

    All combinators below preserve constant access time: each [next]/[prev]
    performs a number of primitive steps bounded by the (constant) size of
    the combinator expression, never by the length of the sequences.

    A running iterator holds only its live path: a concatenation keeps
    the part it is in, not the parts it has passed, and a product stores
    the value of its current pair. So what a pass allocates dies young,
    and the price is that a part entered again is built again. *)

type 'a t = {
  current : unit -> 'a option;
  next : unit -> unit;
  prev : unit -> unit;
  reset : unit -> unit;  (** return to the ⊥ position *)
  is_empty : unit -> bool;  (** true iff the sequence has no elements *)
}

(** Global work counter: every primitive movement of every combinator
    bumps it once, so the tick delta across one top-level [next] measures
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

(** The empty iterator: permanently at ⊥. *)
let empty =
  {
    current = (fun () -> None);
    next = ignore;
    prev = ignore;
    reset = ignore;
    is_empty = (fun () -> true);
  }

(** Iterator over the elements of an array (in index order). *)
let of_array arr =
  let l = Array.length arr in
  let pos = ref 0 in
  {
    current = (fun () -> if !pos = 0 then None else Some arr.(!pos - 1));
    next = (fun () -> tick (); pos := (!pos + 1) mod (l + 1));
    prev = (fun () -> tick (); pos := (!pos + l) mod (l + 1));
    reset = (fun () -> pos := 0);
    is_empty = (fun () -> l = 0);
  }

let of_list l = of_array (Array.of_list l)

(** Single-element iterator. *)
let singleton v = of_array [| v |]

(** Map a function over an iterator's outputs. *)
let map f t = { t with current = (fun () -> Option.map f (t.current ())) }

(* one movement of [it]: forward for a positive [dir], else backward *)
let step dir it = if dir > 0 then it.next () else it.prev ()

(** Concatenation of [k] parts, a constant number, that holds only the
    part it is in: part [j] is skipped when [skip j] holds, and is
    otherwise non-empty and built by [make j] each time the concatenation
    enters it (then reset and moved), in either direction. The part is
    dropped when the concatenation leaves it, forward, backward or at a
    [reset]; so the state is the active index and the active part, and a
    running concatenation keeps no part it has passed. A part entered
    again is built again: the cost of that build is the price of not
    keeping it. *)
let concat_init k ~skip make =
  (* active = -1 at ⊥, else the index of [part], whose element is current *)
  let active = ref (-1) and part = ref empty in
  (* enter the first part from [j] on, stepping by [dir], that yields *)
  let rec enter j dir =
    if j < 0 || j >= k then begin
      active := -1;
      part := empty
    end
    else if skip j then enter (j + dir) dir
    else begin
      let p = make j in
      p.reset ();
      step dir p;
      match p.current () with
      | Some _ ->
          active := j;
          part := p
      | None -> enter (j + dir) dir
    end
  in
  let move dir () =
    tick ();
    let j = !active in
    if j < 0 then enter (if dir > 0 then 0 else k - 1) dir
    else begin
      let p = !part in
      step dir p;
      match p.current () with Some _ -> () | None -> enter (j + dir) dir
    end
  in
  let rec all_skipped j = j >= k || (skip j && all_skipped (j + 1)) in
  {
    current = (fun () -> !part.current ());
    next = move 1;
    prev = move (-1);
    reset =
      (fun () ->
        active := -1;
        part := empty);
    is_empty = (fun () -> all_skipped 0);
  }

(** Concatenation of a constant number of iterators. Empty components are
    skipped, so the delay is bounded by the number of components; a
    component is reset when the concatenation enters it. *)
let concat (parts : 'a t list) =
  let parts = Array.of_list parts in
  concat_init (Array.length parts) ~skip:(fun j -> parts.(j).is_empty ()) (Array.get parts)

(** Lexicographic product through [f]: the values [f x y] for the pairs
    (x, y) with [x] from [a] varying slowest. The value is computed once
    per movement and stored, so [current] reads a field. Entering the
    product resets and moves both operands; when [b] runs out, [a] moves
    and [b] wraps to its first (or last) element, so the delay stays
    constant, but a [b] that builds its parts on entry ({!concat_init})
    builds them again for each element of [a]. *)
let product f (a : 'a t) (b : 'b t) : 'c t =
  let value = ref None in
  let set () =
    value := match (a.current (), b.current ()) with Some x, Some y -> Some (f x y) | _ -> None
  in
  let move dir () =
    tick ();
    match !value with
    | None ->
        if not (a.is_empty () || b.is_empty ()) then begin
          a.reset ();
          b.reset ();
          step dir a;
          step dir b;
          set ()
        end
    | Some _ -> (
        step dir b;
        match b.current () with
        | Some _ -> set ()
        | None -> (
            step dir a;
            match a.current () with
            | Some _ ->
                step dir b;
                set ()
            | None -> value := None))
  in
  {
    current = (fun () -> !value);
    next = move 1;
    prev = move (-1);
    reset =
      (fun () ->
        a.reset ();
        b.reset ();
        value := None);
    is_empty = (fun () -> a.is_empty () || b.is_empty ());
  }

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
