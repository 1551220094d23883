(** Bi-directional constant-access iterators (paper, Section 5).

    An iterator ranges over a conceptual finite sequence u₁, …, u_l and keeps
    a position i ∈ {0, 1, …, l}, where position 0 is the distinguished ⊥
    state. [current] returns [None] exactly at ⊥; [next] and [prev] move
    cyclically through the l + 1 positions, so a full enumeration is: start
    at ⊥ (or [reset]), call [next] then [current] until ⊥ comes around again.

    All combinators below preserve constant access time: each [next]/[prev]
    performs a number of primitive steps bounded by the (constant) size of
    the combinator expression, never by the length of the sequences. *)

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

(** Live view over a doubly-linked list. The iterator walks the list's
    current nodes; it must not be used across structural updates to the
    list (standard enumeration-phase semantics). *)
let of_dll (d : 'a Dll.t) =
  let pos : 'a Dll.node option ref = ref None in
  {
    current = (fun () -> Option.map (fun (n : 'a Dll.node) -> n.Dll.value) !pos);
    next =
      (fun () ->
        tick ();
        pos := (match !pos with None -> Dll.first d | Some n -> n.Dll.next));
    prev =
      (fun () ->
        tick ();
        pos := (match !pos with None -> Dll.last d | Some n -> n.Dll.prev));
    reset = (fun () -> pos := None);
    is_empty = (fun () -> Dll.is_empty d);
  }

(* The concatenation of parts [0 .. k - 1] with [k = Array.length parts]:
   part [j] is skipped while [skip j] holds, and is [parts.(j)] once it is
   not [empty], else [make j], stored at the first entry. *)
let concat_parts (parts : 'a t array) ~skip make =
  let k = Array.length parts in
  let part j =
    let p = parts.(j) in
    if p != empty then p
    else begin
      let p = make j in
      parts.(j) <- p;
      p
    end
  in
  (* active = -1 at ⊥, else index of the component whose element is current *)
  let active = ref (-1) in
  let rec advance_from j =
    if j >= k then begin
      active := -1 (* wrapped: every later component exhausted *)
    end
    else if skip j then advance_from (j + 1)
    else begin
      let p = part j in
      p.next ();
      match p.current () with
      | Some _ -> active := j
      | None -> advance_from (j + 1)
    end
  in
  let rec retreat_from j =
    if j < 0 then active := -1
    else if skip j then retreat_from (j - 1)
    else begin
      let p = part j in
      p.prev ();
      match p.current () with
      | Some _ -> active := j
      | None -> retreat_from (j - 1)
    end
  in
  let rec all_skipped j = j >= k || (skip j && all_skipped (j + 1)) in
  {
    current =
      (fun () -> if !active < 0 then None else parts.(!active).current ());
    next =
      (fun () ->
        tick ();
        if !active < 0 then advance_from 0
        else begin
          let j = !active in
          parts.(j).next ();
          match parts.(j).current () with
          | Some _ -> ()
          | None -> advance_from (j + 1)
        end);
    prev =
      (fun () ->
        tick ();
        if !active < 0 then retreat_from (k - 1)
        else begin
          let j = !active in
          parts.(j).prev ();
          match parts.(j).current () with
          | Some _ -> ()
          | None -> retreat_from (j - 1)
        end);
    reset =
      (fun () ->
        Array.iter (fun p -> p.reset ()) parts;
        active := -1);
    is_empty = (fun () -> all_skipped 0);
  }

(** Concatenation of a constant number of iterators. Empty components are
    skipped, so the delay is bounded by the number of components. *)
let concat (parts : 'a t list) =
  let parts = Array.of_list parts in
  concat_parts parts ~skip:(fun j -> parts.(j).is_empty ()) (Array.get parts)

(** Concatenation of [k] parts, a constant number, each built only when
    the concatenation first enters it: part [j] is skipped when [skip j]
    holds, and is otherwise non-empty and built by [make j] at its first
    movement, then kept (a [reset] resets the parts built so far). So a
    concatenation costs its own closures until it moves, and no more than
    the parts it reaches. *)
let concat_init k ~skip make = concat_parts (Array.make k empty) ~skip make

(** Lexicographic product: pairs (a, b) with [a] from the first iterator
    varying slowest. Both components must be resettable; delay is constant
    because advancing past the end of [b] costs O(1) sub-steps. *)
let product (a : 'a t) (b : 'b t) : ('a * 'b) t =
  let at_bot = ref true in
  let cur () =
    if !at_bot then None
    else
      match (a.current (), b.current ()) with
      | Some x, Some y -> Some (x, y)
      | _ -> None
  in
  let enter_first () =
    if a.is_empty () || b.is_empty () then at_bot := true
    else begin
      a.reset ();
      b.reset ();
      a.next ();
      b.next ();
      at_bot := false
    end
  in
  let enter_last () =
    if a.is_empty () || b.is_empty () then at_bot := true
    else begin
      a.reset ();
      b.reset ();
      a.prev ();
      b.prev ();
      at_bot := false
    end
  in
  {
    current = cur;
    next =
      (fun () ->
        tick ();
        if !at_bot then enter_first ()
        else begin
          b.next ();
          match b.current () with
          | Some _ -> ()
          | None ->
              a.next ();
              (match a.current () with
              | Some _ -> b.next () (* b to its first element *)
              | None -> at_bot := true)
        end);
    prev =
      (fun () ->
        tick ();
        if !at_bot then enter_last ()
        else begin
          b.prev ();
          match b.current () with
          | Some _ -> ()
          | None ->
              a.prev ();
              (match a.current () with
              | Some _ -> b.prev () (* b to its last element *)
              | None -> at_bot := true)
        end);
    reset =
      (fun () ->
        a.reset ();
        b.reset ();
        at_bot := true);
    is_empty = (fun () -> a.is_empty () || b.is_empty ());
  }

(** Dependent lexicographic product: pairs (a, b) where the iterator for
    [b] is built from [a] by [mk]. REQUIRES: [mk a] is nonempty for every
    [a] the outer iterator yields — this is exactly the guarantee that the
    column-choice structure of Lemma 39 provides, and it is what makes the
    delay constant. [mk] must run in constant time. *)
let dep_product (outer : 'a t) (mk : 'a -> 'b t) : ('a * 'b) t =
  let inner : 'b t ref = ref empty in
  let at_bot = ref true in
  let enter dir =
    (match dir with `Fwd -> outer.next () | `Bwd -> outer.prev ());
    match outer.current () with
    | None ->
        at_bot := true;
        inner := empty
    | Some a ->
        let it = mk a in
        it.reset ();
        (match dir with `Fwd -> it.next () | `Bwd -> it.prev ());
        inner := it;
        at_bot := false
  in
  {
    current =
      (fun () ->
        if !at_bot then None
        else
          match (outer.current (), !inner.current ()) with
          | Some a, Some b -> Some (a, b)
          | _ -> None);
    next =
      (fun () ->
        tick ();
        if !at_bot then begin
          outer.reset ();
          enter `Fwd
        end
        else begin
          !inner.next ();
          match !inner.current () with Some _ -> () | None -> enter `Fwd
        end);
    prev =
      (fun () ->
        tick ();
        if !at_bot then begin
          outer.reset ();
          enter `Bwd
        end
        else begin
          !inner.prev ();
          match !inner.current () with Some _ -> () | None -> enter `Bwd
        end);
    reset =
      (fun () ->
        outer.reset ();
        inner := empty;
        at_bot := true);
    is_empty = (fun () -> outer.is_empty ());
  }

(** A cursor over a sequence the caller knows to be non-empty, built by
    [make] at its first movement and kept from then on: a [reset] resets
    the built iterator rather than dropping it, and [is_empty] answers
    [false] without building anything. Until the first movement it sits
    at ⊥ and costs only its own closures. The cursor only forwards, so it
    adds no ticks of its own. *)
let deferred (make : unit -> 'a t) =
  let state = ref None in
  let force () =
    match !state with
    | Some it -> it
    | None ->
        let it = make () in
        state := Some it;
        it
  in
  {
    current = (fun () -> match !state with None -> None | Some it -> it.current ());
    next = (fun () -> (force ()).next ());
    prev = (fun () -> (force ()).prev ());
    reset = (fun () -> match !state with None -> () | Some it -> it.reset ());
    is_empty = (fun () -> false);
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
