(** Shapes: forest patterns for summands over rooted forests of bounded
    depth (Section A.2). A shape records, for a tuple of variables, the
    complete ancestor-chain structure: every variable's depth and the level
    at which each pair of chains merges. Every tuple of forest elements
    realizes exactly one shape, so splitting a summand by shapes is a
    mutually exclusive, exhaustive case split — the S-combination of basic
    expressions of Lemma 32.

    Relation literals are resolved *structurally* per shape (this is the
    encoding of Lemma 33 folded into the enumeration): a tuple can belong
    to a relation only if its elements form a clique in the Gaifman graph,
    and in a DFS forest every Gaifman edge joins an ancestor–descendant
    pair. Hence a positive literal R(x̄) forces the variables' nodes onto a
    single chain (otherwise the shape is dead), and a negative literal over
    non-comparable nodes is simply true. For comparable nodes the literal
    becomes a membership constraint attached to the deepest node, recording
    the depths of the other components — checked against the database when
    the circuit is built. Equalities are decided entirely by the shape. *)

type rel_constraint = {
  rel : string;
  depths : int list;  (** depth (level) of each argument's node on the chain *)
  pos : bool;
}

type weight_spec = {
  sym : string;
  wdepths : int list;  (** depth of each argument's node on the chain *)
}

type node = {
  id : int;
  sdepth : int;
  parent : int;  (** shape-node id; roots point to themselves *)
  children : int list;
  rels : rel_constraint list;  (** constraints anchored at this (deepest) node *)
  weights : weight_spec list;  (** weight factors anchored at this node *)
}

type t = {
  nodes : node array;
  roots : int list;
  var_node : (string * int) list;  (** variable → id of its chain-bottom node *)
}

let num_nodes s = Array.length s.nodes

let pp fmt (s : t) =
  Format.fprintf fmt "shape(%d nodes; roots %s; vars %s)" (Array.length s.nodes)
    (String.concat "," (List.map string_of_int s.roots))
    (String.concat ","
       (List.map (fun (v, n) -> Printf.sprintf "%s@%d" v n) s.var_node))

(* All functions 0..p-1 → 0..d as arrays, via a callback. *)
let iter_vectors p d f =
  let v = Array.make p 0 in
  let rec go i =
    if i = p then f v
    else
      for x = 0 to d do
        v.(i) <- x;
        go (i + 1)
      done
  in
  if p = 0 then f v else go 0

exception Dead_shape

(** Enumerate all live shapes of a normalized summand over forests of
    maximum depth [d]. All terms must be plain variables (the engine's
    pipeline guarantees this). *)
let enumerate ~d ~(summand : 'a Logic.Normal.summand) () : t list =
  let prod = summand.Logic.Normal.prod in
  let vars = Array.of_list (Logic.Normal.summand_vars summand) in
  let p = Array.length vars in
  let var_index x =
    let rec go i =
      if i >= p then invalid_arg ("Shape: unknown variable " ^ x)
      else if vars.(i) = x then i
      else go (i + 1)
    in
    go 0
  in
  let term_var t =
    match t with
    | Logic.Term.Var x -> var_index x
    | _ -> invalid_arg "Shape: terms must be plain variables at the forest stage"
  in
  if p = 0 then [ { nodes = [||]; roots = []; var_node = [] } ]
  else begin
    (* variable pairs forced comparable by positive multi-ary literals or
       multi-ary weights: their chains must share the shallower's whole
       depth *)
    let must_compare = Hashtbl.create 8 in
    let record_pairs ts =
      let is' = List.map term_var ts in
      let rec pairs = function
        | [] -> ()
        | i :: rest ->
            List.iter (fun j -> if i <> j then Hashtbl.replace must_compare (min i j, max i j) ()) rest;
            pairs rest
      in
      pairs is'
    in
    List.iter
      (fun (l : Logic.Normal.literal) ->
        match l.Logic.Normal.atom with
        | Logic.Normal.ARel (_, ts) when l.Logic.Normal.pos && List.length ts >= 2 ->
            record_pairs ts
        | _ -> ())
      prod.Logic.Normal.lits;
    List.iter (fun (_, ts) -> if List.length ts >= 2 then record_pairs ts) prod.Logic.Normal.weights;
    let shapes = ref [] in
    iter_vectors p d (fun dep ->
        let pairs = ref [] in
        for i = 0 to p - 1 do
          for j = i + 1 to p - 1 do
            pairs := (i, j) :: !pairs
          done
        done;
        let pairs = Array.of_list (List.rev !pairs) in
        let m = Array.make_matrix p p (-2) in
        for i = 0 to p - 1 do
          m.(i).(i) <- dep.(i)
        done;
        let set_m i j v =
          m.(i).(j) <- v;
          m.(j).(i) <- v
        in
        let rec go k =
          if k = Array.length pairs then emit ()
          else begin
            let i, j = pairs.(k) in
            let lo =
              if Hashtbl.mem must_compare (i, j) then min dep.(i) dep.(j) else -1
            in
            for v = lo to min dep.(i) dep.(j) do
              set_m i j v;
              let ok = ref true in
              for z = 0 to p - 1 do
                if z <> i && z <> j && m.(i).(z) > -2 && m.(j).(z) > -2 then begin
                  let a = m.(i).(j) and b = m.(i).(z) and c = m.(j).(z) in
                  let mn = min a (min b c) in
                  let cnt =
                    (if a = mn then 1 else 0)
                    + (if b = mn then 1 else 0)
                    + if c = mn then 1 else 0
                  in
                  if cnt < 2 then ok := false
                end
              done;
              if !ok then go (k + 1)
            done;
            set_m i j (-2)
          end
        and emit () =
          (* representative of variable i's chain node at level l *)
          let rep i l =
            let r = ref i in
            for j = 0 to p - 1 do
              if j < !r && m.(i).(j) >= l then r := j
            done;
            !r
          in
          try
            (* equality literals are decided by the merge structure *)
            List.iter
              (fun (l : Logic.Normal.literal) ->
                match l.Logic.Normal.atom with
                | Logic.Normal.AEq (a, b) ->
                    let ia = term_var a and ib = term_var b in
                    let same = dep.(ia) = dep.(ib) && m.(ia).(ib) = dep.(ia) in
                    if same <> l.Logic.Normal.pos then raise Dead_shape
                | Logic.Normal.ARel _ -> ())
              prod.Logic.Normal.lits;
            (* comparability of a set of variables: nodes pairwise on one
               chain, i.e. for each pair the shallower's depth is fully
               shared *)
            let comparable is' =
              let rec go = function
                | [] -> true
                | i :: rest ->
                    List.for_all
                      (fun j ->
                        i = j
                        || m.(i).(j) >= min dep.(i) dep.(j))
                      rest
                    && go rest
              in
              go is'
            in
            let deepest is' =
              List.fold_left (fun best i -> if dep.(i) > dep.(best) then i else best) (List.hd is') is'
            in
            (* anchored constraints: (anchor var, constraint) *)
            let rel_anchors = ref [] in
            List.iter
              (fun (l : Logic.Normal.literal) ->
                match l.Logic.Normal.atom with
                | Logic.Normal.AEq _ -> ()
                | Logic.Normal.ARel (r, ts) ->
                    let is' = List.map term_var ts in
                    if comparable is' then
                      rel_anchors :=
                        (deepest is', { rel = r; depths = List.map (fun i -> dep.(i)) is'; pos = l.Logic.Normal.pos })
                        :: !rel_anchors
                    else if l.Logic.Normal.pos then raise Dead_shape
                    (* negative literal over non-comparable nodes: true *))
              prod.Logic.Normal.lits;
            let weight_anchors = ref [] in
            List.iter
              (fun (w, ts) ->
                let is' = List.map term_var ts in
                if comparable is' then
                  weight_anchors :=
                    (deepest is', { sym = w; wdepths = List.map (fun i -> dep.(i)) is' })
                    :: !weight_anchors
                else
                  (* a multi-ary weight on a non-clique tuple is zero *)
                  raise Dead_shape)
              prod.Logic.Normal.weights;
            (* build the node set *)
            let node_ids = Hashtbl.create 16 in
            let next_id = ref 0 in
            let node_of key =
              match Hashtbl.find_opt node_ids key with
              | Some id -> id
              | None ->
                  let id = !next_id in
                  incr next_id;
                  Hashtbl.replace node_ids key id;
                  id
            in
            for i = 0 to p - 1 do
              for l = 0 to dep.(i) do
                ignore (node_of (rep i l, l))
              done
            done;
            let nnodes = !next_id in
            let sdepth = Array.make nnodes 0 in
            let parent = Array.make nnodes (-1) in
            Hashtbl.iter
              (fun (r, l) id ->
                sdepth.(id) <- l;
                parent.(id) <- (if l = 0 then id else node_of (rep r (l - 1), l - 1)))
              node_ids;
            let rels = Array.make nnodes [] in
            let weights = Array.make nnodes [] in
            List.iter
              (fun (i, c) ->
                let id = node_of (rep i dep.(i), dep.(i)) in
                rels.(id) <- c :: rels.(id))
              !rel_anchors;
            List.iter
              (fun (i, w) ->
                let id = node_of (rep i dep.(i), dep.(i)) in
                weights.(id) <- w :: weights.(id))
              !weight_anchors;
            let children = Array.make nnodes [] in
            let roots = ref [] in
            for id = 0 to nnodes - 1 do
              if parent.(id) = id then roots := id :: !roots
              else children.(parent.(id)) <- id :: children.(parent.(id))
            done;
            let nodes =
              Array.init nnodes (fun id ->
                  {
                    id;
                    sdepth = sdepth.(id);
                    parent = parent.(id);
                    children = children.(id);
                    rels = rels.(id);
                    weights = weights.(id);
                  })
            in
            let var_node =
              Array.to_list (Array.mapi (fun i x -> (x, node_of (rep i dep.(i), dep.(i)))) vars)
            in
            shapes := { nodes; roots = !roots; var_node } :: !shapes
          with Dead_shape -> ()
        in
        go 0);
    !shapes
  end
