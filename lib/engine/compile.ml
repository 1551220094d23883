(** The compilation pipeline of Theorem 6: a fixed closed weighted
    expression and a database from a bounded-expansion class are compiled,
    in time linear in the database, into a circuit with permanent gates
    whose inputs are the tuple weights.

    Pipeline (Figure 2 of the paper, specialized as described in
    DESIGN.md):

    1. normalize the expression into summands Σ_x̄ (coeff · Π lits · Π w)
       (Lemma 28 / Lemma 32);
    2. compute a low-treedepth coloring of the Gaifman graph by
       transitive–fraternal augmentation (Proposition 1);
    3. split the sum over color subsets D of size ≤ p with surjective
       color assignments — identity (12) of Lemma 35;
    4. for each subset, build a low-depth elimination forest of the induced
       subgraph and compile each summand by shapes (Lemmas 29–33), with
       relation literals resolved per shape against the database and the
       color map checked per shape node; a summand's shapes are
       enumerated once per forest depth and shared by every subset.

    The raw circuit is a sequence of {!segment}s — one per color subset,
    after a preamble for the constant summands — and one function emits
    it: each segment is either compiled afresh or copied gate for gate
    from the previous raw circuit. A full compile ({!compile_plan}) lists
    the segments and rebuilds every one. A structural update
    ({!recompile_local}) rebuilds only the segments it affects; when it
    grows the treedepth witness of an affected subset past the compiled
    [max_depth] bound — the amortization trigger — {!recompile_local}
    runs a full compile with a fresh coloring instead. *)

type meta = {
  p : int;  (** maximum number of variables in a summand *)
  num_colors : int;
  num_subsets : int;  (** color subsets actually compiled *)
  max_forest_depth : int;
  num_shapes : int;  (** shapes compiled across all subsets *)
  num_summands : int;
  opt : Opt.report;  (** the circuit's gate counts before and after the optimizer *)
}

let pp_meta fmt m =
  Format.fprintf fmt "p=%d colors=%d subsets=%d depth<=%d shapes=%d summands=%d gates=%d->%d"
    m.p m.num_colors m.num_subsets m.max_forest_depth m.num_shapes m.num_summands
    m.opt.Opt.raw m.opt.Opt.optimized

(* Compilation metrics (scope "compile"): per-phase wall time through the
   Figure 2 pipeline, plus the circuit parameters Theorem 6 bounds. The
   gauges hold the most recent compile's values; histograms accumulate
   across compiles. *)
let m_runs = Obs.counter ~scope:"compile" "runs"
let m_shapes = Obs.counter ~scope:"compile" "shapes"
let m_subsets = Obs.counter ~scope:"compile" "subsets"
let m_recompiles = Obs.counter ~scope:"compile" "recompiles_local"
let m_recompile_fallbacks = Obs.counter ~scope:"compile" "recompile_fallbacks"
let m_gates_rebuilt = Obs.counter ~scope:"compile" "gates_rebuilt"
let m_gates_copied = Obs.counter ~scope:"compile" "gates_copied"
let h_total_ns = Obs.histogram ~scope:"compile" "total_ns"
let h_normalize_ns = Obs.histogram ~scope:"compile" "normalize_ns"
let h_orientation_ns = Obs.histogram ~scope:"compile" "orientation_ns"
let h_decompose_ns = Obs.histogram ~scope:"compile" "decompose_ns"
let h_emit_ns = Obs.histogram ~scope:"compile" "emit_ns"
let g_gates = Obs.gauge ~scope:"compile" "gates"
let g_depth = Obs.gauge ~scope:"compile" "depth"
let g_fan_out = Obs.gauge ~scope:"compile" "max_fan_out"
let g_perm_rows = Obs.gauge ~scope:"compile" "max_perm_rows"
let g_num_perm = Obs.gauge ~scope:"compile" "num_perm"
let g_inputs = Obs.gauge ~scope:"compile" "num_inputs"

(* all subsets of [colors present] with size in [1, p] *)
let rec subsets_up_to p = function
  | [] -> [ [] ]
  | c :: rest ->
      let without = subsets_up_to p rest in
      let with_c =
        List.filter_map
          (fun s -> if List.length s < p then Some (c :: s) else None)
          without
      in
      without @ with_c

(* all surjective maps from [vars] onto [subset], as assoc lists *)
let surjective_maps vars subset =
  let rec go = function
    | [] -> [ [] ]
    | x :: rest ->
        List.concat_map (fun m -> List.map (fun c -> (x, c) :: m) subset) (go rest)
  in
  List.filter
    (fun m -> List.for_all (fun c -> List.exists (fun (_, c') -> c' = c) m) subset)
    (go vars)

(* run [f], adding its wall time to [clock] when one is given *)
let time clock f =
  match clock with
  | None -> f ()
  | Some acc ->
      let t0 = Obs.now_ns () in
      let r = f () in
      acc := !acc +. Obs.elapsed_ns t0;
      r

let start_monitor budget =
  if Robust.is_unlimited budget then None else Some (Robust.start budget)

(** One contiguous slice of the raw circuit: the gates one color subset
    (or the constant-summand preamble, [seg_subset = None]) compiled to.
    Structural updates copy unaffected segments gate for gate and rebuild
    only the affected ones. *)
type segment = {
  seg_subset : int list option;
  seg_lo : int;  (** raw gate range [seg_lo, seg_hi) *)
  seg_hi : int;
  seg_tops : int list;  (** this segment's top-level gates, emission order *)
  seg_depth : int;  (** elimination-forest depth used (0 for the preamble) *)
  seg_shapes : int;
}

(** The inputs of a compile, fixed for the life of a prepared query,
    and the shapes met so far. The instance is shared mutable state with
    the caller. *)
type 'a spec = {
  sp_inst : Db.Instance.t;
  sp_nf : 'a Logic.Normal.summand list;
  sp_p : int;
  sp_zero : 'a;
  sp_one : 'a;
  sp_equal : 'a -> 'a -> bool;
  sp_opt : Opt.setting;
  sp_tfa_rounds : int;
  sp_max_depth : int;
  sp_budget : Robust.budget;
  sp_dynamic_rels : string list;
  sp_shapes : (int * int, Shapes.Shape.t list) Hashtbl.t;
      (** (summand index, forest depth) → the summand's shapes, filled on
          first use: shapes depend on neither the database nor the color
          split, so every subset, structural update and full recompile of
          the plan shares them *)
}

(** Everything a structural update needs: the compile inputs, the live
    graph (with its pinned coloring and forest cache) and the segmented
    raw circuit. The live graph is shared mutable state with the caller,
    and the spec's shape cache only grows; the rest is immutable — a
    successful [recompile_local] returns a
    {e new} plan and the caller commits it, so a failed splice never
    leaves a half-updated plan. *)
type 'a plan = {
  pl_spec : 'a spec;
  pl_live : Graphs.Live.t;
  pl_raw : 'a Circuits.Circuit.t;
  pl_segments : segment list;  (** in raw emission order *)
}

(* The summands a color subset compiles: those with at least as many
   variables as the subset has colors, since a color map onto the subset
   must be surjective. The test reads only the subset and the summands,
   so a compile's segment list survives structural updates. *)
let relevant subset s = List.length (Logic.Normal.summand_vars s) >= List.length subset

(* the shapes of summand [i] at forest depth [d], enumerated on first use *)
let shapes_of spec ?decomp i s d =
  match Hashtbl.find_opt spec.sp_shapes (i, d) with
  | Some shapes -> shapes
  | None ->
      let shapes = time decomp (fun () -> Shapes.Shape.enumerate ~d ~summand:s ()) in
      Hashtbl.replace spec.sp_shapes (i, d) shapes;
      shapes

(* Compile one color subset into the builder: the induced elimination
   forest comes from the live graph's per-subset cache, then every
   relevant summand × surjective color map is compiled by the summand's
   shapes, each color map checked per shape node. Returns the subset's
   top-level gates (emission order), forest depth and shape count. *)
let compile_subset (type a) b (spec : a spec) ~color ~(live : Graphs.Live.t) ~check_budget
    ?decomp ?emit subset : int list * int * int =
  Obs.Trace.span ~scope:"compile" "subset"
    ~attrs:[ ("colors", Obs.Trace.S (String.concat "," (List.map string_of_int subset))) ]
  @@ fun () ->
  let gates0 = Circuits.Circuit.builder_len b in
  check_budget ();
  let forest, orig = time decomp (fun () -> Graphs.Live.forest live subset) in
  Obs.Trace.add_attr "verts" (Obs.Trace.I (Array.length orig));
  let d = Graphs.Forest.max_depth forest in
  if d > spec.sp_max_depth then
    Robust.unsupported "Compile: induced forest depth %d exceeds %d; increase tfa_rounds" d
      spec.sp_max_depth;
  let dynamic r = List.mem r spec.sp_dynamic_rels in
  let holds = Db.Instance.mem spec.sp_inst in
  let fs = { Shapes.Forest_compile.forest; orig; color; holds; dynamic } in
  let tops = ref [] in
  let num_shapes = ref 0 in
  List.iteri
    (fun i (s : a Logic.Normal.summand) ->
      if relevant subset s then
        let shapes = shapes_of spec ?decomp i s d in
        List.iter
          (fun colors ->
            num_shapes := !num_shapes + List.length shapes;
            let sgates =
              time emit (fun () ->
                  List.filter_map
                    (Shapes.Forest_compile.compile_shape b fs ~zero:spec.sp_zero
                       ~one:spec.sp_one ~colors)
                    shapes)
            in
            (* a summand whose shapes are all statically zero has no top *)
            if sgates <> [] then begin
              let body = Circuits.Circuit.add b sgates in
              let gate =
                match s.Logic.Normal.prod.Logic.Normal.coeffs with
                | [] -> body
                | cs -> Circuits.Circuit.mul b (List.map (Circuits.Circuit.const b) cs @ [ body ])
              in
              tops := gate :: !tops
            end;
            check_budget ())
          (surjective_maps (Logic.Normal.summand_vars s) subset))
    spec.sp_nf;
  Obs.Trace.add_attr "depth" (Obs.Trace.I d);
  Obs.Trace.add_attr "shapes" (Obs.Trace.I !num_shapes);
  Obs.Trace.add_attr "gates_emitted" (Obs.Trace.I (Circuits.Circuit.builder_len b - gates0));
  (List.rev !tops, d, !num_shapes)

(* exact structural copy of one raw gate into the builder, children
   remapped through [raw_map]; Add/Mul go through [push] (not the
   singleton-collapsing smart constructors) so copies are gate-for-gate.
   A child with no copy yet is an input first created in a rebuilt
   segment; it is emitted here, on demand, so the rebuilt segments leave
   behind no input that nothing reads *)
let copy_gate (type a) b (nodes : a Circuits.Circuit.node array) raw_map id =
  let map g =
    if raw_map.(g) < 0 then
      raw_map.(g) <-
        (match nodes.(g) with
        | Circuits.Circuit.Input key -> Circuits.Circuit.input b key
        | _ -> Robust.divergence "recompile_local: copied gate %d has an uncopied child" id);
    raw_map.(g)
  in
  match nodes.(id) with
  | Circuits.Circuit.Input key -> Circuits.Circuit.input b key
  | Circuits.Circuit.Const s -> Circuits.Circuit.const b s
  | Circuits.Circuit.Add gs -> Circuits.Circuit.push b (Circuits.Circuit.Add (Array.map map gs))
  | Circuits.Circuit.Mul gs -> Circuits.Circuit.push b (Circuits.Circuit.Mul (Array.map map gs))
  | Circuits.Circuit.Perm rows ->
      Circuits.Circuit.push b (Circuits.Circuit.Perm (Array.map (Array.map map) rows))

(* The one emission path, shared by a full compile and a structural
   update. It walks [segments] in order: a segment [rebuild] selects is
   compiled afresh — the preamble from the constant summands, a subset
   through {!compile_subset} — and any other is copied gate for gate from
   [old_nodes], the previous raw circuit. Then it sums the tops,
   finishes and optimizes the raw circuit, and folds [meta] from the new
   segments. The caller starts [monitor]; [decomp] and [emit] collect
   phase times for a full compile's histograms. *)
let assemble (type a) (spec : a spec) ~live ~(coloring : Graphs.Tfa.coloring) ~monitor
    ?decomp ?emit ~(old_nodes : a Circuits.Circuit.node array) ~rebuild segments :
    a Circuits.Circuit.t * meta * a plan =
  let color = coloring.Graphs.Tfa.color in
  let b = Circuits.Circuit.builder () in
  let check_budget () =
    match monitor with
    | Some m -> Robust.check m ~gates:(Circuits.Circuit.builder_len b)
    | None -> ()
  in
  (* old raw gate → its copy in the new raw circuit *)
  let raw_map = Array.make (Array.length old_nodes) (-1) in
  let emit_segment seg =
    let lo = Circuits.Circuit.builder_len b in
    let seg =
      if not (rebuild seg) then begin
        for id = seg.seg_lo to seg.seg_hi - 1 do
          raw_map.(id) <- copy_gate b old_nodes raw_map id
        done;
        check_budget ();
        { seg with seg_tops = List.map (fun g -> raw_map.(g)) seg.seg_tops }
      end
      else
        match seg.seg_subset with
        | None ->
            (* compile_plan refuses nullary symbols, so a variable-free
               summand is a product of constants *)
            let tops =
              List.filter_map
                (fun (s : a Logic.Normal.summand) ->
                  if Logic.Normal.summand_vars s <> [] then None
                  else begin
                    let gate =
                      match s.Logic.Normal.prod.Logic.Normal.coeffs with
                      | [] -> Circuits.Circuit.const b spec.sp_one
                      | cs -> Circuits.Circuit.mul b (List.map (Circuits.Circuit.const b) cs)
                    in
                    check_budget ();
                    Some gate
                  end)
                spec.sp_nf
            in
            { seg with seg_tops = tops }
        | Some subset ->
            let tops, d, shapes =
              compile_subset b spec ~color ~live ~check_budget ?decomp ?emit subset
            in
            { seg with seg_tops = tops; seg_depth = d; seg_shapes = shapes }
    in
    { seg with seg_lo = lo; seg_hi = Circuits.Circuit.builder_len b }
  in
  let segments, num_subsets, num_shapes =
    Obs.Trace.span ~scope:"compile" "subsets" (fun () ->
        let segments = List.map emit_segment segments in
        let num_subsets = List.length (List.filter (fun s -> s.seg_subset <> None) segments) in
        let num_shapes = List.fold_left (fun acc s -> acc + s.seg_shapes) 0 segments in
        Obs.Trace.add_attr "subsets" (Obs.Trace.I num_subsets);
        Obs.Trace.add_attr "shapes" (Obs.Trace.I num_shapes);
        (segments, num_subsets, num_shapes))
  in
  let raw =
    Obs.Trace.span ~scope:"compile" "finish" (fun () ->
        (* the output sums the tops in reverse emission order *)
        let output =
          match List.rev (List.concat_map (fun s -> s.seg_tops) segments) with
          | [] -> Circuits.Circuit.const b spec.sp_zero
          | gs -> Circuits.Circuit.add b gs
        in
        check_budget ();
        Circuits.Circuit.finish b ~output)
  in
  let optimized =
    if spec.sp_opt then Opt.run ~zero:spec.sp_zero ~one:spec.sp_one ~equal:spec.sp_equal raw
    else Opt.unoptimized raw
  in
  let meta =
    {
      p = spec.sp_p;
      num_colors = coloring.Graphs.Tfa.num_colors;
      num_subsets;
      max_forest_depth = List.fold_left (fun acc s -> max acc s.seg_depth) 0 segments;
      num_shapes;
      num_summands = List.length spec.sp_nf;
      opt = optimized.Opt.report;
    }
  in
  ( optimized.Opt.circuit,
    meta,
    { pl_spec = spec; pl_live = live; pl_raw = raw; pl_segments = segments } )

(* A full compile of the normalized summands: a fresh live Gaifman graph
   and coloring, the segment list — the preamble if some summand has no
   variables, then every non-empty color subset of size ≤ p with a
   relevant summand — and every segment rebuilt. [t_start] is when the
   caller's compile began, for the total-time histogram. *)
let full_compile (type a) (spec : a spec) ~monitor ~t_start =
  let instrumented = Obs.is_enabled () in
  let t_orient = ref 0. and t_decomp = ref 0. and t_emit = ref 0. in
  let clock acc = if instrumented then Some acc else None in
  let n = Db.Instance.n spec.sp_inst in
  let live =
    Obs.Trace.span ~scope:"compile" "gaifman" (fun () ->
        Db.Instance.live_gaifman spec.sp_inst)
  in
  let g = Graphs.Live.snapshot live in
  let coloring =
    Obs.Trace.span ~scope:"compile" "orientation" (fun () ->
        let c =
          time (clock t_orient) (fun () ->
              if spec.sp_p = 0 then
                { Graphs.Tfa.color = Array.make n 0; num_colors = min 1 n; rounds = 0 }
              else
                Graphs.Tfa.low_treedepth_coloring ~rounds:spec.sp_tfa_rounds g ~p:spec.sp_p)
        in
        Obs.Trace.add_attr "colors" (Obs.Trace.I c.Graphs.Tfa.num_colors);
        Obs.Trace.add_attr "rounds" (Obs.Trace.I c.Graphs.Tfa.rounds);
        c)
  in
  Graphs.Live.set_coloring live coloring;
  let fresh seg_subset =
    { seg_subset; seg_lo = 0; seg_hi = 0; seg_tops = []; seg_depth = 0; seg_shapes = 0 }
  in
  let segments =
    (if List.exists (fun s -> Logic.Normal.summand_vars s = []) spec.sp_nf then [ fresh None ]
     else [])
    @ List.filter_map
        (fun subset ->
          if subset <> [] && List.exists (relevant subset) spec.sp_nf then
            Some (fresh (Some subset))
          else None)
        (subsets_up_to spec.sp_p
           (List.sort_uniq compare (Array.to_list coloring.Graphs.Tfa.color)))
  in
  let circuit, meta, plan =
    assemble spec ~live ~coloring ~monitor ?decomp:(clock t_decomp) ?emit:(clock t_emit)
      ~old_nodes:[||] ~rebuild:(fun _ -> true) segments
  in
  if instrumented then begin
    Obs.Counter.incr m_runs;
    Obs.Counter.add m_shapes meta.num_shapes;
    Obs.Counter.add m_subsets meta.num_subsets;
    Obs.Histogram.observe h_orientation_ns !t_orient;
    Obs.Histogram.observe h_decompose_ns !t_decomp;
    Obs.Histogram.observe h_emit_ns !t_emit;
    Obs.Histogram.observe h_total_ns (Obs.elapsed_ns t_start);
    let s = Circuits.Circuit.stats circuit in
    Obs.Gauge.set_int g_gates s.Circuits.Circuit.gates;
    Obs.Gauge.set_int g_depth s.Circuits.Circuit.depth;
    Obs.Gauge.set_int g_fan_out s.Circuits.Circuit.max_fan_out;
    Obs.Gauge.set_int g_perm_rows s.Circuits.Circuit.max_perm_rows;
    Obs.Gauge.set_int g_num_perm s.Circuits.Circuit.num_perm;
    Obs.Gauge.set_int g_inputs s.Circuits.Circuit.num_inputs;
    Obs.Trace.add_attr "p" (Obs.Trace.I spec.sp_p);
    Obs.Trace.add_attr "colors" (Obs.Trace.I meta.num_colors);
    Obs.Trace.add_attr "gates" (Obs.Trace.I s.Circuits.Circuit.gates);
    Obs.Trace.add_attr "depth" (Obs.Trace.I s.Circuits.Circuit.depth);
    Obs.Trace.add_attr "num_perm" (Obs.Trace.I s.Circuits.Circuit.num_perm);
    Obs.Trace.add_attr "max_perm_rows" (Obs.Trace.I s.Circuits.Circuit.max_perm_rows)
  end;
  (circuit, meta, plan)

(** Compile a closed expression over an instance, returning the circuit,
    its meta, and the {!plan} that structural updates maintain.
    [tfa_rounds] overrides the number of augmentation rounds; [max_depth]
    aborts (with [Robust.Unsupported_fragment]) if some induced forest is
    deeper — a sign the coloring is not low-treedepth enough for this
    pattern size. [budget] limits emitted gates and wall-clock time,
    checked cooperatively as shapes and subsets are compiled; a violation
    raises [Robust.Error (Budget_exceeded _)] instead of exhausting memory
    on a hostile query.

    The raw circuit is then rewritten by the {!Opt} sweep ([opt],
    default {!Opt.default}; pass {!Opt.none} for the raw output).
    [equal] decides constant equality for hash-consing and defaults to
    structural equality — pass the semiring's own equality when
    constants have non-canonical representations. The circuit's gate
    counts before and after land in [meta.opt]. *)
let compile_plan (type a) ~(zero : a) ~(one : a) ?(equal : a -> a -> bool = ( = ))
    ?(opt = Opt.default) ?(tfa_rounds = -1) ?(max_depth = 10)
    ?(budget = Robust.unlimited) ?(dynamic_rels = []) (inst : Db.Instance.t)
    (expr : a Logic.Expr.t) : a Circuits.Circuit.t * meta * a plan =
  Obs.Trace.span ~scope:"compile" "compile" @@ fun () ->
  let monitor = start_monitor budget in
  let t_start = Obs.now_ns () in
  (match Logic.Expr.free_vars_unique expr with
  | [] -> ()
  | fv ->
      Robust.bad_input "Compile: expression must be closed; free: %s"
        (String.concat "," fv));
  let instrumented = Obs.is_enabled () in
  let t_norm = ref 0. in
  let nf =
    Obs.Trace.span ~scope:"compile" "normalize" (fun () ->
        let clock = if instrumented then Some t_norm else None in
        let nf = time clock (fun () -> Logic.Normal.of_expr expr) in
        Obs.Trace.add_attr "summands" (Obs.Trace.I (List.length nf));
        nf)
  in
  (* the preamble compiles a variable-free summand to its constants and
     shapes place only symbols with arguments, so a nullary relation or
     weight is out of the fragment; the refusal is degradable, so the
     checked entry points serve the reference evaluator instead *)
  let nullary sym = Robust.unsupported "Compile: nullary symbol %s() is not supported" sym in
  List.iter
    (fun (s : a Logic.Normal.summand) ->
      let prod = s.Logic.Normal.prod in
      List.iter
        (fun l ->
          match l.Logic.Normal.atom with Logic.Normal.ARel (r, []) -> nullary r | _ -> ())
        prod.Logic.Normal.lits;
      List.iter (fun (w, ts) -> if ts = [] then nullary w) prod.Logic.Normal.weights)
    nf;
  let p =
    List.fold_left
      (fun acc s -> max acc (List.length (Logic.Normal.summand_vars s)))
      0 nf
  in
  if p > 4 then
    Robust.unsupported "Compile: %d variables per summand; at most 4 supported" p;
  let spec =
    {
      sp_inst = inst;
      sp_nf = nf;
      sp_p = p;
      sp_zero = zero;
      sp_one = one;
      sp_equal = equal;
      sp_opt = opt;
      sp_tfa_rounds = tfa_rounds;
      sp_max_depth = max_depth;
      sp_budget = budget;
      sp_dynamic_rels = dynamic_rels;
      sp_shapes = Hashtbl.create 16;
    }
  in
  let result = full_compile spec ~monitor ~t_start in
  if instrumented then Obs.Histogram.observe h_normalize_ns !t_norm;
  result

(** One-shot form: {!compile_plan} with the plan dropped. *)
let compile (type a) ~(zero : a) ~(one : a) ?equal ?opt ?tfa_rounds ?max_depth ?budget
    ?dynamic_rels (inst : Db.Instance.t) (expr : a Logic.Expr.t) :
    a Circuits.Circuit.t * meta =
  let circuit, meta, _plan =
    compile_plan ~zero ~one ?equal ?opt ?tfa_rounds ?max_depth ?budget ?dynamic_rels inst
      expr
  in
  (circuit, meta)

(** Maintain the circuit under a structural update touching the vertices
    [touched] (the tuple's elements), which the caller has already
    applied to the instance and the live graph. A segment is affected iff
    its subset contains every touched color: the affected segments are
    rebuilt, the rest copied gate for gate, and the whole circuit is
    re-optimized. If the update grew some affected subset's
    elimination-forest depth past the compiled bound — the amortization
    trigger — a full compile with a fresh coloring runs instead. Returns
    the new optimized circuit, its meta, the plan to commit, and whether
    the update was localized. *)
let recompile_local (type a) (plan : a plan) ~(touched : int list) :
    a Circuits.Circuit.t * meta * a plan * bool =
  Obs.Trace.span ~scope:"compile" "recompile_local"
    ~attrs:[ ("touched", Obs.Trace.I (List.length touched)) ]
  @@ fun () ->
  let spec = plan.pl_spec and live = plan.pl_live in
  let coloring =
    match Graphs.Live.coloring live with
    | Some c -> c
    | None -> Robust.divergence "recompile_local: plan has no pinned coloring"
  in
  let touched_colors = Graphs.Live.colors_of live touched in
  Graphs.Live.invalidate live ~touched_colors;
  let affected seg =
    match seg.seg_subset with
    | None -> false
    | Some subset -> Graphs.Live.subset_affected ~touched_colors subset
  in
  (* pre-flight: rebuild the affected subsets' forests against the updated
     graph and check the treedepth witness still fits the compiled bound *)
  let too_deep =
    List.exists
      (fun seg ->
        match seg.seg_subset with
        | Some subset when affected seg ->
            let forest, _ = Graphs.Live.forest live subset in
            Graphs.Forest.max_depth forest > spec.sp_max_depth
        | _ -> false)
      plan.pl_segments
  in
  if too_deep then begin
    Obs.Counter.incr m_recompile_fallbacks;
    let circuit, meta, plan =
      Obs.Trace.span ~scope:"compile" "compile" (fun () ->
          full_compile spec ~monitor:(start_monitor spec.sp_budget) ~t_start:(Obs.now_ns ()))
    in
    (circuit, meta, plan, false)
  end
  else begin
    let circuit, meta, plan' =
      assemble spec ~live ~coloring ~monitor:(start_monitor spec.sp_budget)
        ~old_nodes:plan.pl_raw.Circuits.Circuit.nodes ~rebuild:affected plan.pl_segments
    in
    let gates segs = List.fold_left (fun acc s -> acc + s.seg_hi - s.seg_lo) 0 segs in
    let gates_rebuilt = gates (List.filter affected plan'.pl_segments)
    and gates_copied = gates (List.filter (fun s -> not (affected s)) plan.pl_segments) in
    Obs.Counter.incr m_recompiles;
    Obs.Counter.add m_gates_rebuilt gates_rebuilt;
    Obs.Counter.add m_gates_copied gates_copied;
    Obs.Trace.add_attr "gates_rebuilt" (Obs.Trace.I gates_rebuilt);
    Obs.Trace.add_attr "gates_copied" (Obs.Trace.I gates_copied);
    (circuit, meta, plan', true)
  end
