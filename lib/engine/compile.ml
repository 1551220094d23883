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
       relation literals resolved per shape against the database.

    The pipeline is re-entrant: {!compile_plan} additionally returns a
    {!plan} — the live Gaifman graph, the pinned coloring, and the raw
    circuit sliced into per-color-subset {!segment}s — and
    {!recompile_local} rebuilds only the segments a structural update
    (tuple insert/delete) touches and copies the untouched ones gate for
    gate. When the treedepth witness of an
    affected subset grows past the compiled [max_depth] bound the
    localized path refuses ({!local_result.Fallback}) and the caller runs
    a full recompile with a fresh coloring — the amortization trigger. *)

type meta = {
  p : int;  (** maximum number of variables in a summand *)
  num_colors : int;
  num_subsets : int;  (** color subsets actually compiled *)
  max_forest_depth : int;
  num_shapes : int;  (** shapes compiled across all subsets *)
  num_summands : int;
  opt : Opt.report;  (** per-pass gate/edge/depth deltas of the optimizer run *)
}

let pp_meta fmt m =
  Format.fprintf fmt "p=%d colors=%d subsets=%d depth<=%d shapes=%d summands=%d gates=%d->%d"
    m.p m.num_colors m.num_subsets m.max_forest_depth m.num_shapes m.num_summands
    m.opt.Opt.r_gates_before m.opt.Opt.r_gates_after

let color_rel c = Printf.sprintf "__color_%d" c

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

(* the compiled [holds] predicate: color pseudo-relations resolve against
   the pinned coloring, everything else against the (mutable) instance *)
let mk_holds inst (color : int array) r tuple =
  if String.length r > 8 && String.sub r 0 8 = "__color_" then
    match tuple with
    | [ v ] -> color.(v) = int_of_string (String.sub r 8 (String.length r - 8))
    | _ -> false
  else Db.Instance.mem inst r tuple

(* instrumented timing combinator shared by compile and recompile paths;
   the record field keeps it polymorphic past the value restriction *)
type timed = { timed : 'a. float ref -> (unit -> 'a) -> 'a }

let mk_timed () =
  let instrumented = Obs.is_enabled () in
  {
    timed =
      (fun acc f ->
        if instrumented then begin
          let t0 = Obs.now_ns () in
          let r = f () in
          acc := !acc +. Obs.elapsed_ns t0;
          r
        end
        else f ());
  }

(** One contiguous slice of the raw circuit: the gates one color subset
    (or the constant-summand preamble, [seg_subset = None]) compiled to.
    Localized recompiles copy unaffected segments gate for gate and re-run
    only the affected ones. *)
type segment = {
  seg_subset : int list option;
  seg_lo : int;  (** raw gate range [seg_lo, seg_hi) *)
  seg_hi : int;
  seg_tops : int list;  (** this segment's top-level gates, emission order *)
  seg_depth : int;  (** elimination-forest depth used (0 for the preamble) *)
  seg_shapes : int;
}

(** Everything a localized recompile needs: the inputs of the one-shot
    pipeline plus the live graph (with its pinned coloring and forest
    cache) and the segmented raw circuit. The instance and live graph are
    shared mutable state with the caller; the rest is immutable — a
    successful [recompile_local] returns a {e new} plan and the caller
    commits it, so a failed splice never leaves a half-updated plan. *)
type 'a plan = {
  pl_inst : Db.Instance.t;
  pl_nf : 'a Logic.Normal.summand list;
  pl_num_summands : int;
  pl_p : int;
  pl_live : Graphs.Live.t;
  pl_zero : 'a;
  pl_one : 'a;
  pl_equal : 'a -> 'a -> bool;
  pl_opt : Opt.pass list;
  pl_tfa_rounds : int;
  pl_max_depth : int;
  pl_budget : Robust.budget;
  pl_dynamic_rels : string list;
  pl_raw : 'a Circuits.Circuit.t;
  pl_segments : segment list;  (** in raw emission order *)
}

(* Compile one color subset into the builder: the induced elimination
   forest comes from the live graph's per-subset cache, then every
   relevant summand × surjective color map is compiled by shapes. Returns
   the subset's top-level gates (emission order), forest depth, and shape
   count — or [None] when the subset has nothing to compile (both
   conditions depend only on the pinned coloring and the summand set, so
   a skipped subset stays skipped across structural updates). *)
let compile_subset (type a) b ~(nf : a Logic.Normal.summand list) ~holds ~dynamic
    ~(zero : a) ~(one : a) ~(live : Graphs.Live.t) ~(verts : int list) ~check_budget
    ~(max_depth : int) ~timed ~t_decomp ~t_emit subset :
    (int list * int * int) option =
  let relevant =
    List.filter
      (fun s ->
        let q = List.length (Logic.Normal.summand_vars s) in
        q >= List.length subset && q > 0)
      nf
  in
  if verts = [] || relevant = [] then None
  else begin
    Obs.Trace.span ~scope:"compile" "subset"
      ~attrs:
        [
          ("colors", Obs.Trace.S (String.concat "," (List.map string_of_int subset)));
          ("verts", Obs.Trace.I (List.length verts));
        ]
    @@ fun () ->
    let gates0 = Circuits.Circuit.builder_len b in
    check_budget ();
    let forest, orig =
      timed.timed t_decomp (fun () -> Graphs.Live.forest live subset ~verts)
    in
    let d = Graphs.Forest.max_depth forest in
    if d > max_depth then
      Robust.unsupported "Compile: induced forest depth %d exceeds %d; increase tfa_rounds"
        d max_depth;
    let fs = { Shapes.Forest_compile.forest; orig; holds; dynamic } in
    let tops = ref [] in
    let num_shapes = ref 0 in
    List.iter
      (fun (s : a Logic.Normal.summand) ->
        let vars = Logic.Normal.summand_vars s in
        List.iter
          (fun cmap ->
            let color_lits =
              List.map
                (fun (x, c) ->
                  {
                    Logic.Normal.pos = true;
                    atom = Logic.Normal.ARel (color_rel c, [ Logic.Term.Var x ]);
                  })
                cmap
            in
            let s' =
              {
                s with
                Logic.Normal.prod =
                  {
                    s.Logic.Normal.prod with
                    Logic.Normal.lits = color_lits @ s.Logic.Normal.prod.Logic.Normal.lits;
                  };
              }
            in
            let shapes =
              timed.timed t_decomp (fun () -> Shapes.Shape.enumerate ~d ~summand:s' ())
            in
            num_shapes := !num_shapes + List.length shapes;
            let sgates =
              timed.timed t_emit (fun () ->
                  List.filter_map (Shapes.Forest_compile.compile_shape b fs ~zero ~one) shapes)
            in
            (* a summand whose shapes are all statically zero has no top *)
            if sgates <> [] then begin
              let body = Circuits.Circuit.add b sgates in
              let gate =
                match s.Logic.Normal.prod.Logic.Normal.coeffs with
                | [] -> body
                | cs ->
                    Circuits.Circuit.mul b (List.map (Circuits.Circuit.const b) cs @ [ body ])
              in
              tops := gate :: !tops
            end;
            check_budget ())
          (surjective_maps vars subset))
      relevant;
    Obs.Trace.add_attr "depth" (Obs.Trace.I d);
    Obs.Trace.add_attr "shapes" (Obs.Trace.I !num_shapes);
    Obs.Trace.add_attr "gates_emitted"
      (Obs.Trace.I (Circuits.Circuit.builder_len b - gates0));
    Some (List.rev !tops, d, !num_shapes)
  end

(* the vertices whose pinned color lies in [subset], ascending *)
let subset_verts (color : int array) n subset =
  let verts = ref [] in
  for v = n - 1 downto 0 do
    if List.mem color.(v) subset then verts := v :: !verts
  done;
  !verts

(** Compile a closed expression over an instance, returning the circuit,
    its meta, and the {!plan} that makes localized recompiles possible.
    [tfa_rounds] overrides the number of augmentation rounds; [max_depth]
    aborts (with [Robust.Unsupported_fragment]) if some induced forest is
    deeper — a sign the coloring is not low-treedepth enough for this
    pattern size. [budget] limits emitted gates and wall-clock time,
    checked cooperatively as shapes and subsets are compiled; a violation
    raises [Robust.Error (Budget_exceeded _)] instead of exhausting memory
    on a hostile query.

    The raw circuit is then rewritten by the {!Opt} pipeline ([opt],
    default {!Opt.default_passes}; pass [Opt.none] for the raw output).
    [equal] decides constant equality for identity folding / hash-consing
    and defaults to structural equality — pass the semiring's own
    equality when constants have non-canonical representations. The
    per-pass shrink report lands in [meta.opt]. *)
let compile_plan (type a) ~(zero : a) ~(one : a) ?(equal : a -> a -> bool = ( = ))
    ?(opt = Opt.default_passes) ?(tfa_rounds = -1) ?(max_depth = 10)
    ?(budget = Robust.unlimited) ?(dynamic_rels = []) (inst : Db.Instance.t)
    (expr : a Logic.Expr.t) : a Circuits.Circuit.t * meta * a plan =
  Obs.Trace.span ~scope:"compile" "compile" @@ fun () ->
  let monitor = if Robust.is_unlimited budget then None else Some (Robust.start budget) in
  let instrumented = Obs.is_enabled () in
  let t_start = if instrumented then Obs.now_ns () else 0. in
  let t_decomp = ref 0. and t_emit = ref 0. in
  let timed = mk_timed () in
  (match Logic.Expr.free_vars_unique expr with
  | [] -> ()
  | fv ->
      Robust.bad_input "Compile: expression must be closed; free: %s"
        (String.concat "," fv));
  let t_norm = ref 0. in
  let nf =
    Obs.Trace.span ~scope:"compile" "normalize" (fun () ->
        let nf = timed.timed t_norm (fun () -> Logic.Normal.of_expr expr) in
        Obs.Trace.add_attr "summands" (Obs.Trace.I (List.length nf));
        nf)
  in
  let num_summands = List.length nf in
  let p =
    List.fold_left
      (fun acc s -> max acc (List.length (Logic.Normal.summand_vars s)))
      0 nf
  in
  if p > 4 then
    Robust.unsupported "Compile: %d variables per summand; at most 4 supported" p;
  let n = Db.Instance.n inst in
  let live =
    Obs.Trace.span ~scope:"compile" "gaifman" (fun () -> Db.Instance.live_gaifman inst)
  in
  let g = Graphs.Live.snapshot live in
  let t_orient = ref 0. in
  let coloring =
    Obs.Trace.span ~scope:"compile" "orientation" (fun () ->
        let c =
          timed.timed t_orient (fun () ->
              if p = 0 then
                { Graphs.Tfa.color = Array.make n 0; num_colors = min 1 n; rounds = 0 }
              else Graphs.Tfa.low_treedepth_coloring ~rounds:tfa_rounds g ~p)
        in
        Obs.Trace.add_attr "colors" (Obs.Trace.I c.Graphs.Tfa.num_colors);
        Obs.Trace.add_attr "rounds" (Obs.Trace.I c.Graphs.Tfa.rounds);
        c)
  in
  Graphs.Live.set_coloring live coloring;
  let color = coloring.Graphs.Tfa.color in
  let holds = mk_holds inst color in
  let dynamic r = List.mem r dynamic_rels in
  let b = Circuits.Circuit.builder () in
  let check_budget () =
    match monitor with
    | Some m -> Robust.check m ~gates:(Circuits.Circuit.builder_len b)
    | None -> ()
  in
  let gates = ref [] in
  let num_shapes = ref 0 in
  let max_forest_depth = ref 0 in
  let num_subsets = ref 0 in
  let segments = ref [] in
  (* constant summands (no variables) compile once, as the preamble *)
  let pre_tops = ref [] in
  List.iter
    (fun (s : a Logic.Normal.summand) ->
      if Logic.Normal.summand_vars s = [] then begin
        (* a variable-free summand has no literals or weights, only coeffs *)
        let gate =
          match s.Logic.Normal.prod.Logic.Normal.coeffs with
          | [] -> Circuits.Circuit.const b one
          | cs -> Circuits.Circuit.mul b (List.map (Circuits.Circuit.const b) cs)
        in
        gates := gate :: !gates;
        pre_tops := gate :: !pre_tops;
        check_budget ()
      end)
    nf;
  if Circuits.Circuit.builder_len b > 0 || !pre_tops <> [] then
    segments :=
      {
        seg_subset = None;
        seg_lo = 0;
        seg_hi = Circuits.Circuit.builder_len b;
        seg_tops = List.rev !pre_tops;
        seg_depth = 0;
        seg_shapes = 0;
      }
      :: !segments;
  Obs.Trace.span ~scope:"compile" "subsets" (fun () ->
      if p > 0 && n > 0 then begin
        let colors_present =
          List.sort_uniq compare (Array.to_list (Array.sub color 0 n))
        in
        let subsets = List.filter (fun s -> s <> []) (subsets_up_to p colors_present) in
        List.iter
          (fun subset ->
            let verts = subset_verts color n subset in
            let lo = Circuits.Circuit.builder_len b in
            match
              compile_subset b ~nf ~holds ~dynamic ~zero ~one ~live ~verts
                ~check_budget ~max_depth ~timed ~t_decomp ~t_emit subset
            with
            | None -> ()
            | Some (tops, d, shapes) ->
                incr num_subsets;
                num_shapes := !num_shapes + shapes;
                max_forest_depth := max !max_forest_depth d;
                List.iter (fun gate -> gates := gate :: !gates) tops;
                segments :=
                  {
                    seg_subset = Some subset;
                    seg_lo = lo;
                    seg_hi = Circuits.Circuit.builder_len b;
                    seg_tops = tops;
                    seg_depth = d;
                    seg_shapes = shapes;
                  }
                  :: !segments)
          subsets
      end;
      Obs.Trace.add_attr "subsets" (Obs.Trace.I !num_subsets);
      Obs.Trace.add_attr "shapes" (Obs.Trace.I !num_shapes));
  let raw =
    Obs.Trace.span ~scope:"compile" "finish" (fun () ->
        let output =
          match !gates with
          | [] -> Circuits.Circuit.const b zero
          | gs -> Circuits.Circuit.add b gs
        in
        check_budget ();
        Circuits.Circuit.finish b ~output)
  in
  let optimized = Opt.run ~passes:opt ~zero ~one ~equal raw in
  let circuit = optimized.Opt.circuit in
  if instrumented then begin
    Obs.Counter.incr m_runs;
    Obs.Counter.add m_shapes !num_shapes;
    Obs.Counter.add m_subsets !num_subsets;
    Obs.Histogram.observe h_normalize_ns !t_norm;
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
    Obs.Trace.add_attr "p" (Obs.Trace.I p);
    Obs.Trace.add_attr "colors" (Obs.Trace.I coloring.Graphs.Tfa.num_colors);
    Obs.Trace.add_attr "gates" (Obs.Trace.I s.Circuits.Circuit.gates);
    Obs.Trace.add_attr "depth" (Obs.Trace.I s.Circuits.Circuit.depth);
    Obs.Trace.add_attr "num_perm" (Obs.Trace.I s.Circuits.Circuit.num_perm);
    Obs.Trace.add_attr "max_perm_rows" (Obs.Trace.I s.Circuits.Circuit.max_perm_rows)
  end;
  let meta =
    {
      p;
      num_colors = coloring.Graphs.Tfa.num_colors;
      num_subsets = !num_subsets;
      max_forest_depth = !max_forest_depth;
      num_shapes = !num_shapes;
      num_summands;
      opt = optimized.Opt.report;
    }
  in
  let plan =
    {
      pl_inst = inst;
      pl_nf = nf;
      pl_num_summands = num_summands;
      pl_p = p;
      pl_live = live;
      pl_zero = zero;
      pl_one = one;
      pl_equal = equal;
      pl_opt = opt;
      pl_tfa_rounds = tfa_rounds;
      pl_max_depth = max_depth;
      pl_budget = budget;
      pl_dynamic_rels = dynamic_rels;
      pl_raw = raw;
      pl_segments = List.rev !segments;
    }
  in
  (circuit, meta, plan)

(** One-shot form: {!compile_plan} with the plan dropped. *)
let compile (type a) ~(zero : a) ~(one : a) ?equal ?opt ?tfa_rounds ?max_depth ?budget
    ?dynamic_rels (inst : Db.Instance.t) (expr : a Logic.Expr.t) :
    a Circuits.Circuit.t * meta =
  let circuit, meta, _plan =
    compile_plan ~zero ~one ?equal ?opt ?tfa_rounds ?max_depth ?budget ?dynamic_rels inst
      expr
  in
  (circuit, meta)

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

(** Result of {!recompile_local}. [Localized] carries the new optimized
    circuit, its meta and the plan to commit. [Fallback] is the
    amortization trigger: the update grew some affected subset's
    elimination-forest depth past the compiled bound, so the caller must
    run a full {!compile_plan} (fresh coloring) instead. *)
type 'a local_result =
  | Localized of { circuit : 'a Circuits.Circuit.t; meta : meta; plan : 'a plan }
  | Fallback of string

(** Rebuild only the color-subset segments affected by a structural
    update touching the vertices [touched] (the tuple's elements): a
    segment is affected iff its subset contains every touched color. The
    untouched segments are copied gate for gate and the whole circuit is
    then re-optimized. The caller is responsible for having already
    applied the tuple change to the instance and the live graph. *)
let recompile_local (type a) (plan : a plan) ~(touched : int list) : a local_result =
  Obs.Trace.span ~scope:"compile" "recompile_local"
    ~attrs:[ ("touched", Obs.Trace.I (List.length touched)) ]
  @@ fun () ->
  let live = plan.pl_live in
  let coloring =
    match Graphs.Live.coloring live with
    | Some c -> c
    | None -> Robust.divergence "recompile_local: plan has no pinned coloring"
  in
  let color = coloring.Graphs.Tfa.color in
  let n = Db.Instance.n plan.pl_inst in
  let touched_colors = Graphs.Live.colors_of live touched in
  ignore (Graphs.Live.invalidate live ~touched_colors);
  let affected seg =
    match seg.seg_subset with
    | None -> false
    | Some subset -> Graphs.Live.subset_affected ~touched_colors subset
  in
  (* pre-flight: rebuild the affected subsets' forests against the updated
     graph and check the treedepth witness still fits the compiled bound —
     if not, this is the amortization trigger and the caller recompiles
     from scratch with a fresh coloring *)
  let too_deep =
    List.find_map
      (fun seg ->
        match seg.seg_subset with
        | Some subset when affected seg ->
            let verts = subset_verts color n subset in
            let forest, _ = Graphs.Live.forest live subset ~verts in
            let d = Graphs.Forest.max_depth forest in
            if d > plan.pl_max_depth then Some (subset, d) else None
        | _ -> None)
      plan.pl_segments
  in
  match too_deep with
  | Some (subset, d) ->
      Obs.Counter.incr m_recompile_fallbacks;
      Fallback
        (Printf.sprintf
           "treedepth witness of subset {%s} grew to %d, past the compiled bound %d"
           (String.concat "," (List.map string_of_int subset))
           d plan.pl_max_depth)
  | None ->
      let monitor =
        if Robust.is_unlimited plan.pl_budget then None
        else Some (Robust.start plan.pl_budget)
      in
      let timed = mk_timed () in
      let t_decomp = ref 0. and t_emit = ref 0. in
      let holds = mk_holds plan.pl_inst color in
      let dynamic r = List.mem r plan.pl_dynamic_rels in
      let old_raw = plan.pl_raw in
      let old_nodes = old_raw.Circuits.Circuit.nodes in
      (* old raw gate → its copy in the new raw circuit *)
      let raw_map = Array.make (Array.length old_nodes) (-1) in
      let b = Circuits.Circuit.builder () in
      let check_budget () =
        match monitor with
        | Some m -> Robust.check m ~gates:(Circuits.Circuit.builder_len b)
        | None -> ()
      in
      let gates = ref [] in
      let segments = ref [] in
      let gates_rebuilt = ref 0 in
      let gates_copied = ref 0 in
      let num_shapes = ref 0 in
      let num_subsets = ref 0 in
      let max_forest_depth = ref 0 in
      List.iter
        (fun seg ->
          let lo = Circuits.Circuit.builder_len b in
          if affected seg then begin
            let subset = Option.get seg.seg_subset in
            let verts = subset_verts color n subset in
            match
              compile_subset b ~nf:plan.pl_nf ~holds ~dynamic ~zero:plan.pl_zero
                ~one:plan.pl_one ~live ~verts ~check_budget
                ~max_depth:plan.pl_max_depth ~timed ~t_decomp ~t_emit subset
            with
            | None ->
                (* verts and relevance are static given the pinned
                   coloring, so a compiled subset cannot become empty *)
                Robust.divergence "recompile_local: compiled subset became empty"
            | Some (tops, d, shapes) ->
                let hi = Circuits.Circuit.builder_len b in
                gates_rebuilt := !gates_rebuilt + (hi - lo);
                incr num_subsets;
                num_shapes := !num_shapes + shapes;
                max_forest_depth := max !max_forest_depth d;
                List.iter (fun gate -> gates := gate :: !gates) tops;
                segments :=
                  {
                    seg_subset = Some subset;
                    seg_lo = lo;
                    seg_hi = hi;
                    seg_tops = tops;
                    seg_depth = d;
                    seg_shapes = shapes;
                  }
                  :: !segments
          end
          else begin
            for id = seg.seg_lo to seg.seg_hi - 1 do
              raw_map.(id) <- copy_gate b old_nodes raw_map id
            done;
            let hi = Circuits.Circuit.builder_len b in
            gates_copied := !gates_copied + (seg.seg_hi - seg.seg_lo);
            let tops = List.map (fun g -> raw_map.(g)) seg.seg_tops in
            if seg.seg_subset <> None then begin
              incr num_subsets;
              num_shapes := !num_shapes + seg.seg_shapes;
              max_forest_depth := max !max_forest_depth seg.seg_depth
            end;
            List.iter (fun gate -> gates := gate :: !gates) tops;
            segments := { seg with seg_lo = lo; seg_hi = hi; seg_tops = tops } :: !segments;
            check_budget ()
          end)
        plan.pl_segments;
      let output =
        match !gates with
        | [] -> Circuits.Circuit.const b plan.pl_zero
        | gs -> Circuits.Circuit.add b gs
      in
      check_budget ();
      let raw = Circuits.Circuit.finish b ~output in
      let optimized =
        Opt.run ~passes:plan.pl_opt ~zero:plan.pl_zero ~one:plan.pl_one
          ~equal:plan.pl_equal raw
      in
      Obs.Counter.incr m_recompiles;
      Obs.Counter.add m_gates_rebuilt !gates_rebuilt;
      Obs.Counter.add m_gates_copied !gates_copied;
      Obs.Trace.add_attr "gates_rebuilt" (Obs.Trace.I !gates_rebuilt);
      Obs.Trace.add_attr "gates_copied" (Obs.Trace.I !gates_copied);
      let meta =
        {
          p = plan.pl_p;
          num_colors = coloring.Graphs.Tfa.num_colors;
          num_subsets = !num_subsets;
          max_forest_depth = !max_forest_depth;
          num_shapes = !num_shapes;
          num_summands = plan.pl_num_summands;
          opt = optimized.Opt.report;
        }
      in
      Localized
        {
          circuit = optimized.Opt.circuit;
          meta;
          plan = { plan with pl_raw = raw; pl_segments = List.rev !segments };
        }
