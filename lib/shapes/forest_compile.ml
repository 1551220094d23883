(** Circuit construction over a rooted forest, per shape (Lemma 29 and its
    Claim 1). For a shape with roots r₁ … r_m and a forest with roots
    v₁ … v_N, the circuit is a permanent gate over the m × N matrix whose
    (r, v) entry is

      [constraints of r hold at v] · Π weights at v · C(subtrees of r, subtree of v),

    recursing in lockstep down the two forests. Injectivity of the
    permanent's assignments is exactly injectivity of forest embeddings.
    Memoizing on (shape node, forest node) keeps the construction linear in
    the forest size for a fixed shape. *)

type fstage = {
  forest : Graphs.Forest.t;  (** reindexed vertices 0 … m−1 *)
  orig : int array;  (** forest vertex → original database element *)
  color : int array;  (** database element → its color in the pinned coloring *)
  holds : string -> int list -> bool;  (** relation membership over original elements *)
  dynamic : string -> bool;
      (** relations encoded as ±weight inputs (Lemma 40) instead of being
          checked at compile time — this is what makes Gaifman-preserving
          updates possible without recompiling *)
}

(** Input-key names for the v⁺_R / v⁻_R weights of Lemma 40. *)
let pos_weight rel = "__pos_" ^ rel

let neg_weight rel = "__neg_" ^ rel

(** The (w, ā) input key for a weight anchored at forest node [v] with
    argument depths [wdepths]. *)
let weight_key fs v (w : Shape.weight_spec) : Circuits.Circuit.input_key =
  let tuple =
    List.map
      (fun l ->
        match Graphs.Forest.ancestor_at_depth fs.forest v l with
        | Some a -> fs.orig.(a)
        | None -> invalid_arg "Forest_compile: constraint depth exceeds node depth")
      w.Shape.wdepths
  in
  (w.Shape.sym, tuple)

let constraint_tuple fs v (c : Shape.rel_constraint) =
  List.map
    (fun l ->
      match Graphs.Forest.ancestor_at_depth fs.forest v l with
      | Some a -> fs.orig.(a)
      | None -> invalid_arg "Forest_compile: constraint depth exceeds node depth")
    c.Shape.depths

let rel_holds fs v (c : Shape.rel_constraint) : bool =
  fs.holds c.Shape.rel (constraint_tuple fs v c) = c.Shape.pos

(** Compile one shape into a gate of the builder [b], or [None] when its
    value is statically zero. [colors] maps variables to the color their
    element must have — the color split of Lemma 35 — and is checked at
    each variable's shape node like a static constraint; two variables
    on one node with different colors leave nothing to embed. Nothing
    is emitted for a (shape node, forest node) pair whose value is
    statically zero: a static constraint or the color fails at the node,
    or its children's permanent is zero because a row has no non-zero
    entry or fewer columns than rows have one. A non-zero
    permanent keeps only its columns with some non-zero entry; its
    remaining zero entries point at one shared zero constant. These
    rewrites use only "zero annihilates" and "zero is the additive
    identity", so they hold in every semiring. Dynamic relations are
    inputs and never pruned. *)
let compile_shape (type a) (b : a Circuits.Circuit.builder) (fs : fstage)
    ~(zero : a) ~(one : a) ~(colors : (string * int) list) (s : Shape.t) : int option =
  (* the color each shape node's forest node must have, or -1 *)
  let need = Array.make (Shape.num_nodes s) (-1) in
  let clash =
    List.exists
      (fun (x, sid) ->
        match List.assoc_opt x colors with
        | None -> false
        | Some c ->
            let other = need.(sid) in
            need.(sid) <- c;
            other >= 0 && other <> c)
      s.Shape.var_node
  in
  if clash then None
  else if Shape.num_nodes s = 0 then Some (Circuits.Circuit.const b one)
  else begin
    let zero_gate = ref (-1) in
    let get_zero () =
      if !zero_gate < 0 then zero_gate := Circuits.Circuit.const b zero;
      !zero_gate
    in
    let one_gate = ref (-1) in
    let get_one () =
      if !one_gate < 0 then one_gate := Circuits.Circuit.const b one;
      !one_gate
    in
    (* (shape node, forest node) → gate, flat as shape node × forest size
       + forest node; [unset] before the first visit, [zero_entry] for a
       statically zero pair *)
    let unset = -2 and zero_entry = -1 in
    let nv = Graphs.Forest.n fs.forest in
    let memo = Array.make (Shape.num_nodes s * nv) unset in
    (* the permanent of [row_sids] × [cols], or [zero_entry] *)
    let rec perm row_sids cols =
      let cols = Array.of_list cols in
      let rows =
        Array.of_list (List.map (fun sid -> Array.map (fun v -> subtree sid v) cols) row_sids)
      in
      let live_col j = Array.exists (fun row -> row.(j) <> zero_entry) rows in
      let kept = List.filter live_col (List.init (Array.length cols) Fun.id) in
      if
        List.length kept < Array.length rows
        || Array.exists (Array.for_all (fun g -> g = zero_entry)) rows
      then zero_entry
      else
        Circuits.Circuit.perm b
          (Array.map
             (fun row ->
               Array.of_list
                 (List.map (fun j -> if row.(j) = zero_entry then get_zero () else row.(j)) kept))
             rows)
    (* gate computing: shape subtree rooted at [sid] embeds at forest node
       [v] (with sid ↦ v), times the weights along the way *)
    and subtree sid v =
      let k = (sid * nv) + v in
      if memo.(k) <> unset then memo.(k)
      else begin
        let sn = s.nodes.(sid) in
        let g =
          if need.(sid) >= 0 && fs.color.(fs.orig.(v)) <> need.(sid) then zero_entry
          else begin
            let static_rels, dynamic_rels =
              List.partition
                (fun (c : Shape.rel_constraint) -> not (fs.dynamic c.Shape.rel))
                sn.Shape.rels
            in
            (* the pair's gate: the node's weight inputs times [pg] *)
            let node pg =
              let wgates =
                List.map (fun w -> Circuits.Circuit.input b (weight_key fs v w)) sn.Shape.weights
                @ List.map
                    (fun (c : Shape.rel_constraint) ->
                      let name =
                        if c.Shape.pos then pos_weight c.Shape.rel else neg_weight c.Shape.rel
                      in
                      Circuits.Circuit.input b (name, constraint_tuple fs v c))
                    dynamic_rels
              in
              match wgates @ pg with [] -> get_one () | gs -> Circuits.Circuit.mul b gs
            in
            if not (List.for_all (rel_holds fs v) static_rels) then zero_entry
            else
              match sn.Shape.children with
              | [] -> node []
              | cs ->
                  (* the children's permanent first, so a zero node emits
                     no weight inputs *)
                  let pg = perm cs (Graphs.Forest.children fs.forest v) in
                  if pg = zero_entry then zero_entry else node [ pg ]
          end
        in
        memo.(k) <- g;
        g
      end
    in
    let g = perm s.roots (Graphs.Forest.roots fs.forest) in
    if g = zero_entry then None else Some g
  end
