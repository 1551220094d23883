(** Evaluation of circuits in the free semiring with iterator-represented
    elements (Theorem 22).

    A circuit is evaluated into a DAG of iterators: additions become
    concatenations, multiplications become products mapped through
    monomial multiplication, and permanent gates become the constant-delay
    permanent enumerators of Lemma 23 (a one-row permanent is the sum of
    its row, and is built as one). Each [enumerate] first runs one
    bottom-up pass over the gates that computes every gate's boolean
    projection (Lemma 23's h: is its value non-empty?) and resolves every
    input gate's current monomials into an array. It then builds only the
    output's iterator; every child reference becomes a cursor that is
    built at its first movement ({!Enum.Iter.deferred}), and an empty
    child becomes {!Enum.Iter.empty} without descending. The work per
    [enumerate] is linear in the DAG (gates and permanent cells), not in
    its unfolding, plus the cursors the enumeration actually moves.

    Gates may be shared between parents (the optimizer's hash-consing
    makes sharing common even for non-leaf gates), but every reference
    gets its own fresh cursor — sharing in the circuit never aliases
    stateful iterators, so no iterator ever appears in two
    simultaneously-active positions.

    Constants must be the booleans 0 and 1 of the compilation (false ↦
    empty iterator, true ↦ the single empty monomial) — exactly what
    [Engine.Compile] emits when compiling with [~zero:false ~one:true]. *)

(* Cursors built during enumeration: one per visited non-leaf gate
   reference, so its growth per answer measures the lazy build. *)
let m_cursors_built = Obs.counter ~scope:"provenance" "cursors_built"

(** Prepared provenance query: compile once (linear time), then build
    monomial enumerators against the current weight valuation. A weight
    update is recorded in O(1); the next [enumerate] redoes the emptiness
    pass in time linear in the circuit (see DESIGN.md §3 for how this
    relates to the paper's fully-dynamic variant). *)
type 'g t = {
  circuit : bool Circuits.Circuit.t;
  meta : Engine.Compile.meta;
  weights : (Circuits.Circuit.input_key, 'g Free.mono list) Hashtbl.t;
      (** current value of each weight as an explicit monomial list *)
  default : Circuits.Circuit.input_key -> 'g Free.mono list;
}

(** [prepare inst expr ~weight] compiles Σ-expression [expr] (over boolean
    constants) and installs [weight] as the initial valuation: the list of
    monomials of each weight's value (often a singleton identifier). *)
let prepare ?opt ?(dynamic_rels = []) ?(budget = Robust.unlimited) (inst : Db.Instance.t)
    (expr : bool Logic.Expr.t) ~(weight : string -> int list -> 'g Free.mono list) :
    'g t =
  let circuit, meta =
    Engine.Compile.compile ~zero:false ~one:true ?opt ~dynamic_rels ~budget inst expr
  in
  {
    circuit;
    meta;
    weights = Hashtbl.create 256;
    default = (fun (w, tuple) -> weight w tuple);
  }

(** Update one weight to a new free-semiring value (list of monomials).
    O(1): recorded in an overlay consulted at the next enumeration. *)
let update t (w : string) (tuple : int list) (value : 'g Free.mono list) =
  Hashtbl.replace t.weights (w, tuple) value

let current t key =
  match Hashtbl.find_opt t.weights key with Some v -> v | None -> t.default key

(** A fresh constant-delay enumerator for the monomials of the query value
    under the current weights. *)
let enumerate (type g) (t : g t) : g Free.mono Enum.Iter.t =
  let open Circuits.Circuit in
  let nodes = t.circuit.nodes in
  (* the boolean projection of every gate, and each input's monomials *)
  let nonempty = Bytes.make (Array.length nodes) '\000' in
  let leaves : g Free.mono array array = Array.make (Array.length nodes) [||] in
  let ne g = Bytes.get nonempty g <> '\000' in
  Array.iteri
    (fun id node ->
      let h =
        match node with
        | Input key ->
            leaves.(id) <- Array.of_list (current t key);
            Array.length leaves.(id) > 0
        | Const b -> b
        | Add gs | Perm [| gs |] -> Array.exists ne gs
        | Mul gs -> Array.for_all ne gs
        | Perm rows ->
            let k = Array.length rows in
            let counts = Array.make (1 lsl k) 0 in
            for c = 0 to (if k = 0 then 0 else Array.length rows.(0)) - 1 do
              let ty = ref 0 in
              for r = 0 to k - 1 do
                if ne rows.(r).(c) then ty := !ty lor (1 lsl r)
              done;
              counts.(!ty) <- min k (counts.(!ty) + 1)
            done;
            Perm.Enum_perm.hall ~k ~avail:(Array.get counts) ((1 lsl k) - 1)
      in
      if h then Bytes.set nonempty id '\001')
    nodes;
  (* [build id] for a non-empty gate; [child] is one reference to a gate,
     [sum] the concatenation of the non-empty ones among [gs] *)
  let rec build id : g Free.mono Enum.Iter.t =
    match nodes.(id) with
    | Input _ -> Enum.Iter.of_array leaves.(id)
    | Const _ | Mul [||] -> Enum.Iter.singleton Free.mono_one
    | Add gs -> sum gs
    | Mul gs ->
        let mul acc g =
          Enum.Iter.map (fun (a, b) -> Free.mono_mul a b) (Enum.Iter.product acc (child g))
        in
        Array.fold_left mul (child gs.(0)) (Array.sub gs 1 (Array.length gs - 1))
    (* a one-row permanent is the sum of its row *)
    | Perm [| row |] -> sum row
    | Perm rows ->
        let entries = Array.map (Array.map child) rows in
        Perm.Enum_perm.enumerate
          (Perm.Enum_perm.create ~mul:Free.mono_mul ~one:Free.mono_one entries)
  and sum gs =
    Enum.Iter.concat (Array.fold_right (fun g acc -> if ne g then child g :: acc else acc) gs [])
  and child id =
    if not (ne id) then Enum.Iter.empty
    else
      match nodes.(id) with
      | Input _ | Const _ -> build id
      | Add _ | Mul _ | Perm _ ->
          Enum.Iter.deferred (fun () ->
              Obs.Counter.incr m_cursors_built;
              build id)
  in
  if ne t.circuit.output then build t.circuit.output else Enum.Iter.empty

let meta t = t.meta

(** Parameters of the compiled circuit the enumerators walk (the
    Theorem 22 preprocessing output), for observability surfaces. *)
let circuit_stats t = Circuits.Circuit.stats t.circuit
