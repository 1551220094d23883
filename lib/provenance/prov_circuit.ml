(** Evaluation of circuits in the free semiring with iterator-represented
    elements (Theorem 22).

    A circuit is evaluated into a DAG of iterators: additions become
    concatenations, multiplications become products mapped through
    monomial multiplication, and permanent gates become the constant-delay
    permanent enumerators of Lemma 23 (a one-row permanent is the sum of
    its row, and is built as one).

    Enumeration reads a maintained emptiness index: every gate's boolean
    projection (Lemma 23's h: is its value non-empty?), each input gate's
    current monomials resolved into an array, and the circuit's parent
    lists. The first [enumerate] builds the index in one bottom-up pass;
    after that an update only records its input key, and the next
    [enumerate] re-reads just the recorded inputs and walks upward from
    each input whose emptiness flipped, stopping at the first parent whose
    h is unchanged. An enumerator then builds only the output's iterator;
    every child reference becomes a cursor that is built at its first
    movement ({!Enum.Iter.deferred}), and an empty child becomes
    {!Enum.Iter.empty} without descending. So the work per [enumerate] is
    the changed inputs and the gates whose emptiness they flip, plus the
    cursors the enumeration actually moves.

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

(* Parents whose h the index refresh recomputes: the work an update costs
   the next enumerator. *)
let m_index_recomputed = Obs.counter ~scope:"provenance" "index_gates_recomputed"

(** The emptiness index of Lemma 23, kept across updates. *)
type 'g index = {
  nonempty : Bytes.t;  (** h of each gate: ['\001'] iff its value is non-empty *)
  mutable parent_start : int array;
      (** gate [g]'s distinct parents are [parents.(parent_start.(g))]
          up to [parents.(parent_start.(g + 1) - 1)]; both arrays stay
          empty until an update first flips an input, so an enumeration
          without updates never builds them *)
  mutable parents : int array;
  leaves : 'g Free.mono array array;
      (** each input gate's current monomials; [[||]] at other gates *)
  pending_w : string array;
  pending_tuple : int list array;
      (** input keys updated since the last refresh, one slot per input
          gate *)
  mutable pending : int;
      (** keys recorded since the last refresh; past the slot count the
          slots are dropped and the next refresh rebuilds every gate *)
}

(** Prepared provenance query: compile once (linear time), then build
    monomial enumerators against the current weight valuation. A weight
    update is recorded in O(1); the next [enumerate] brings the emptiness
    index up to date by re-reading only the recorded inputs. *)
type 'g t = {
  circuit : bool Circuits.Circuit.t;
  meta : Engine.Compile.meta;
  weights : (Circuits.Circuit.input_key, 'g Free.mono list) Hashtbl.t;
      (** current value of each weight as an explicit monomial list *)
  default : Circuits.Circuit.input_key -> 'g Free.mono list;
  mutable index : 'g index option;  (** built by the first [enumerate] *)
  mutable generation : int;
      (** bumped by every refresh that drained an update: enumerators of an
          older generation are stale *)
}

(** [prepare inst expr ~weight] compiles Σ-expression [expr] (over boolean
    constants) and installs [weight] as the initial valuation: the list of
    monomials of each weight's value (often a singleton identifier).
    [weight] is read once per input key at the first [enumerate], and then
    only for the keys passed to {!update} or {!touch}. *)
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
    index = None;
    generation = 0;
  }

(** Record that the value of weight [w] at [tuple], as read through the
    [~weight] function of {!prepare}, may have changed: the next
    [enumerate] reads it again. O(1), with no hashing. A key touched again
    right after itself (the same [w] and [tuple] values, as when a toggle
    is undone) is recorded once. *)
let touch t (w : string) (tuple : int list) =
  match t.index with
  | None -> ()
  | Some ix ->
      let i = ix.pending in
      if i >= Array.length ix.pending_w then ix.pending <- i + 1
      else if i = 0 || ix.pending_w.(i - 1) != w || ix.pending_tuple.(i - 1) != tuple then begin
        ix.pending_w.(i) <- w;
        ix.pending_tuple.(i) <- tuple;
        ix.pending <- i + 1
      end

(** Update one weight to a new free-semiring value (list of monomials).
    O(1): recorded in an overlay consulted at the next enumeration. *)
let update t (w : string) (tuple : int list) (value : 'g Free.mono list) =
  Hashtbl.replace t.weights (w, tuple) value;
  touch t w tuple

let current t key =
  if Hashtbl.length t.weights = 0 then t.default key
  else match Hashtbl.find_opt t.weights key with Some v -> v | None -> t.default key

let ne ix g = Bytes.get ix.nonempty g <> '\000'

let rec exists_ne ix gs j = j < Array.length gs && (ne ix gs.(j) || exists_ne ix gs (j + 1))
let rec for_all_ne ix gs j = j >= Array.length gs || (ne ix gs.(j) && for_all_ne ix gs (j + 1))

(* h of a non-input gate from its children's h *)
let gate_h ix (node : bool Circuits.Circuit.node) =
  match node with
  | Input _ -> invalid_arg "Prov_circuit.gate_h: input gate"
  | Const b -> b
  | Add gs | Perm [| gs |] -> exists_ne ix gs 0
  | Mul gs -> for_all_ne ix gs 0
  | Perm rows ->
      let k = Array.length rows in
      let counts = Array.make (1 lsl k) 0 in
      for c = 0 to (if k = 0 then 0 else Array.length rows.(0)) - 1 do
        let ty = ref 0 in
        for r = 0 to k - 1 do
          if ne ix rows.(r).(c) then ty := !ty lor (1 lsl r)
        done;
        counts.(!ty) <- min k (counts.(!ty) + 1)
      done;
      Perm.Enum_perm.hall ~k ~avail:(Array.get counts) ((1 lsl k) - 1)

let set_h ix g h = Bytes.set ix.nonempty g (if h then '\001' else '\000')

(* Re-read an input gate's monomials; returns its h. *)
let read_input t ix g key =
  let ms = Array.of_list (current t key) in
  ix.leaves.(g) <- ms;
  Array.length ms > 0

(* The bottom-up pass: every gate's h from the current inputs. *)
let recompute_all t ix =
  let nodes = t.circuit.nodes in
  for g = 0 to Array.length nodes - 1 do
    set_h ix g (match nodes.(g) with Input key -> read_input t ix g key | node -> gate_h ix node)
  done

(* [f p c] for every child reference [c] of every gate [p], in gate order *)
let iter_edges (nodes : bool Circuits.Circuit.node array) f =
  for p = 0 to Array.length nodes - 1 do
    match nodes.(p) with
    | Input _ | Const _ -> ()
    | Add gs | Mul gs ->
        for j = 0 to Array.length gs - 1 do
          f p gs.(j)
        done
    | Perm rows ->
        for r = 0 to Array.length rows - 1 do
          for j = 0 to Array.length rows.(r) - 1 do
            f p rows.(r).(j)
          done
        done
  done

(* The parent lists in CSR form. Gates are visited in id order, so a
   repeated child of one parent is caught by [last]. *)
let build_parents t ix =
  let nodes = t.circuit.nodes in
  let n = Array.length nodes in
  let last = Array.make n (-1) in
  let parent_start = Array.make (n + 1) 0 in
  iter_edges nodes (fun p c ->
      if last.(c) <> p then begin
        last.(c) <- p;
        parent_start.(c + 1) <- parent_start.(c + 1) + 1
      end);
  for g = 1 to n do
    parent_start.(g) <- parent_start.(g) + parent_start.(g - 1)
  done;
  let parents = Array.make parent_start.(n) 0 in
  let fill = last in
  Array.blit parent_start 0 fill 0 n;
  iter_edges nodes (fun p c ->
      if fill.(c) = parent_start.(c) || parents.(fill.(c) - 1) <> p then begin
        parents.(fill.(c)) <- p;
        fill.(c) <- fill.(c) + 1
      end);
  ix.parent_start <- parent_start;
  ix.parents <- parents

let build_index t =
  let n = Array.length t.circuit.nodes in
  let inputs = Hashtbl.length t.circuit.input_ids in
  let ix =
    {
      nonempty = Bytes.make n '\000';
      parent_start = [||];
      parents = [||];
      leaves = Array.make n [||];
      pending_w = Array.make inputs "";
      pending_tuple = Array.make inputs [];
      pending = 0;
    }
  in
  recompute_all t ix;
  ix

(* Gate [g]'s h became [h]: store it and recompute its parents, walking
   on only from those whose h changes. h is monotone in the children's h,
   so one input's flip moves every gate in one direction and visits each
   at most once. *)
let rec flip nodes ix g h =
  set_h ix g h;
  for j = ix.parent_start.(g) to ix.parent_start.(g + 1) - 1 do
    let p = ix.parents.(j) in
    Obs.Counter.incr m_index_recomputed;
    let hp = gate_h ix nodes.(p) in
    if hp <> ne ix p then flip nodes ix p hp
  done

(* Bring the index up to date with the recorded updates. *)
let refresh t ix =
  let pending = ix.pending in
  if pending > 0 then begin
    if pending > Array.length ix.pending_w then recompute_all t ix
    else
      for i = 0 to pending - 1 do
        let key = (ix.pending_w.(i), ix.pending_tuple.(i)) in
        match Hashtbl.find_opt t.circuit.input_ids key with
        | None -> ()
        | Some g ->
            let h = read_input t ix g key in
            if h <> ne ix g then begin
              if Array.length ix.parent_start = 0 then build_parents t ix;
              flip t.circuit.nodes ix g h
            end
      done;
    ix.pending <- 0;
    t.generation <- t.generation + 1
  end

(** A fresh constant-delay enumerator for the monomials of the query value
    under the current weights. It reads the shared index: once a later
    [enumerate] has drained an update, using it raises
    [Robust.Error (Bad_input _)] (a stale enumerator). *)
let enumerate (type g) (t : g t) : g Free.mono Enum.Iter.t =
  let open Circuits.Circuit in
  let nodes = t.circuit.nodes in
  let ix =
    match t.index with
    | Some ix ->
        refresh t ix;
        ix
    | None ->
        let ix = build_index t in
        t.index <- Some ix;
        ix
  in
  let ne = ne ix in
  (* [build id] for a non-empty gate; [child] is one reference to a gate,
     [sum] the concatenation of the non-empty ones among [gs] *)
  let rec build id : g Free.mono Enum.Iter.t =
    match nodes.(id) with
    | Input _ -> Enum.Iter.of_array ix.leaves.(id)
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
  let it = if ne t.circuit.output then build t.circuit.output else Enum.Iter.empty in
  let generation = t.generation in
  let checked move () =
    if t.generation <> generation then
      Robust.bad_input "Prov_circuit: stale enumerator (an update was drained after it was built)";
    move ()
  in
  { it with Enum.Iter.next = checked it.Enum.Iter.next; prev = checked it.Enum.Iter.prev }

let meta t = t.meta

(** Parameters of the compiled circuit the enumerators walk (the
    Theorem 22 preprocessing output), for observability surfaces. *)
let circuit_stats t = Circuits.Circuit.stats t.circuit
