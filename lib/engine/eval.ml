(** Weighted query evaluation and maintenance (Theorem 8). [prepare]
    compiles the expression once (linear time); the result supports

    - [value] — the current value of a closed expression, O(1);
    - [query] — the value at a tuple, for expressions with free variables:
      the |x̄| query-weight changes of the proof of Theorem 8, propagated
      as one read-only what-if wave ({!Circuits.Dyn.value_with}) that
      writes nothing;
    - [update] — change one weight, in O(log n) for general semirings and
      O(1) for rings and finite semirings (the Dyn strategies).

    Free variables are handled by the closure trick: f(x̄) becomes
    f′ = Σ_x̄ f · v₁(x₁) ⋯ v_k(x_k) for fresh query weights v_i that
    default to 0. *)

(** Structural-churn odometer of one prepared query: how many tuple
    inserts/deletes it absorbed, how many were served by a localized
    recompile vs. the full-recompile fallback, and the runtime gates their
    splices built. *)
type churn = {
  mutable ch_inserts : int;
  mutable ch_deletes : int;
  mutable ch_localized : int;  (** updates served by a localized recompile *)
  mutable ch_fallbacks : int;  (** updates that forced a full recompile *)
  mutable ch_gates_rebuilt : int;  (** runtime gates built across all splices *)
  mutable ch_gates_carried : int;
      (** always 0: every splice builds the whole runtime afresh *)
}

type 'a t = {
  ops : 'a Semiring.Intf.ops;
  mutable dyn : 'a Circuits.Dyn.t;
      (** replaced wholesale by a structural update: the splice builds the
          new runtime aside and the old one is retired on commit *)
  free_vars : string list;  (** in query-argument order *)
  mutable meta : Compile.meta;
  mutable plan : 'a Compile.plan;
      (** the compile plan behind [dyn]'s circuit — segments, live graph,
          raw circuit — that {!Compile.recompile_local} maintains *)
  inst : Db.Instance.t;  (** the live instance; structural ops mutate it *)
  base_valuation : Circuits.Circuit.input_key -> 'a;
      (** weights-store valuation for input keys a new circuit introduces *)
  unread : (Circuits.Circuit.input_key, 'a) Hashtbl.t;
      (** the last write to each weight key the current circuit does not
          read; a structural update that brings the key into the circuit
          seeds it from here *)
  query_sample : Obs.sampler;  (** drives the 1-in-64 sample of [query] timings *)
  churn : churn;
}

let query_weight =
  let name i = Printf.sprintf "%s%d" Db.Weights.reserved_prefix i in
  (* formatted once for the arities queries have, not on every query *)
  let names = Array.init 8 name in
  fun i -> if i < Array.length names then names.(i) else name i

(* Theorem 8 observables (scope "engine"): preparation is linear-time,
   per-tuple queries cost one what-if wave, and degradations to the
   reference evaluator are counted — not just raised. *)
let h_prepare_ns = Obs.histogram ~scope:"engine" "prepare_ns"
let h_query_ns = Obs.histogram ~scope:"engine" "query_ns"
let m_queries = Obs.counter ~scope:"engine" "queries"
let m_updates = Obs.counter ~scope:"engine" "updates"
let m_degraded = Obs.counter ~scope:"engine" "degraded"

(* Recovery observable (scope "dyn", next to rollbacks/repairs): update
   attempts re-run after a rolled-back or repaired wave. *)
let m_retries = Obs.counter ~scope:"dyn" "retries"

let prepare (type a) (ops : a Semiring.Intf.ops) ?mode ?opt ?tfa_rounds
    ?max_depth ?budget (inst : Db.Instance.t) (weights : a Db.Weights.bundle)
    (expr : a Logic.Expr.t) : a t =
  Obs.Trace.span ~scope:"engine" "prepare" @@ fun () ->
  Obs.Timer.time h_prepare_ns @@ fun () ->
  let open Semiring.Intf in
  List.iter
    (fun (w, _) ->
      if String.starts_with ~prefix:Db.Weights.reserved_prefix w then
        Robust.bad_input "Eval.prepare: weight symbol %s uses the reserved prefix %s" w
          Db.Weights.reserved_prefix)
    (Logic.Expr.weight_symbols expr);
  let fv = Logic.Expr.free_vars_unique expr in
  let expr_closed =
    if fv = [] then expr
    else
      Logic.Expr.Sum
        ( fv,
          Logic.Expr.Mul
            (expr
            :: List.mapi
                 (fun i x -> Logic.Expr.Weight (query_weight i, [ Logic.Term.Var x ]))
                 fv) )
  in
  let circuit, meta, plan =
    Compile.compile_plan ~zero:ops.zero ~one:ops.one ~equal:ops.equal ?opt ?tfa_rounds
      ?max_depth ?budget inst expr_closed
  in
  let valuation (w, tuple) =
    if String.starts_with ~prefix:Db.Weights.reserved_prefix w then ops.zero
    else Db.Weights.get (Db.Weights.find weights w) tuple
  in
  let dyn = Circuits.Dyn.create ?mode ops circuit valuation in
  {
    ops;
    dyn;
    free_vars = fv;
    meta;
    plan;
    inst;
    base_valuation = valuation;
    unread = Hashtbl.create 16;
    query_sample = Obs.sampler ();
    churn =
      {
        ch_inserts = 0;
        ch_deletes = 0;
        ch_localized = 0;
        ch_fallbacks = 0;
        ch_gates_rebuilt = 0;
        ch_gates_carried = 0;
      };
  }

(** Value of a closed expression (or of the wrapped sum, which is 0 until
    queried, for expressions with free variables). *)
let value t = Circuits.Dyn.value t.dyn

(* The query weights v_i(a_i) = one of the arguments from position [i]
   on. *)
let rec query_weights one i = function
  | [] -> []
  | a :: rest -> ((query_weight i, [ a ]), one) :: query_weights one (i + 1) rest

(** Value at a tuple (one element per free variable, in the order of
    [free_vars]): the query weights v_i(a_i) set to one in a single
    read-only what-if wave ({!Circuits.Dyn.value_with}) — the committed
    state is never written, so there is nothing to restore and a fault
    cannot leave the weights applied. Like {!Circuits.Dyn.set_input}, it
    times and traces a 1-in-64 systematic sample of the calls
    ({!Obs.sampler}); the [queries] counter is exact. A closed
    expression's query is a plain read of the maintained value. *)
let query (type a) (t : a t) (args : int list) : a =
  if List.length args <> List.length t.free_vars then
    invalid_arg "Eval.query: wrong number of arguments";
  Obs.Counter.incr m_queries;
  Obs.Trace.span_sampled t.query_sample h_query_ns ~scope:"engine" "query" @@ fun () ->
  match args with
  | [] -> Circuits.Dyn.value t.dyn
  | _ ->
      Circuits.Dyn.value_with t.dyn (query_weights t.ops.Semiring.Intf.one 0 args)

(* Writes to weights the circuit does not read: the last value of each
   lands in [unread] (a structural update that brings the key into the
   circuit seeds it from there) and the writes that changed it are
   journaled like a wave, so a replay reconstructs [unread] too. As in
   {!Circuits.Dyn.set_input}, a write of the value already held is no
   change. Applied in order, so a later write to the same key wins. *)
let write_unread t writes =
  let changed =
    List.filter
      (fun (key, v) ->
        match Hashtbl.find_opt t.unread key with
        | Some old when t.ops.Semiring.Intf.equal old v -> false
        | _ ->
            Hashtbl.replace t.unread key v;
            true)
      writes
  in
  match Circuits.Dyn.journal t.dyn with
  | Some j when changed <> [] -> Circuits.Journal.append j changed
  | _ -> ()

(** Update one weight. A weight the circuit does not read is remembered,
    for a later structural update that makes the circuit read it. *)
let update t w tuple v =
  let key = (w, tuple) in
  Obs.Counter.incr m_updates;
  if Circuits.Dyn.has_input t.dyn key then Circuits.Dyn.set_input t.dyn key v
  else write_unread t [ (key, v) ]

let split_read t writes =
  List.partition (fun (key, _) -> Circuits.Dyn.has_input t.dyn key) writes

(** Batched weight updates: semantically equivalent to applying {!update}
    left to right (later writes to the same weight tuple win), but every
    circuit-relevant write propagates in a single {!Circuits.Dyn.set_inputs}
    wave, so gates shared between the updated weights recompute once per
    batch instead of once per update. *)
let update_many t (updates : (string * int list * 'a) list) =
  let read, unread =
    split_read t (List.map (fun (w, tuple, v) -> ((w, tuple), v)) updates)
  in
  Obs.Counter.add m_updates (List.length updates);
  Circuits.Dyn.set_inputs t.dyn read;
  write_unread t unread

let meta t = t.meta

(** The optimized circuit being served, rebuilt from the runtime's CSR
    arrays (gate ids unchanged) — O(size), for statistics and tests. *)
let circuit t = Circuits.Compact.to_circuit t.dyn.Circuits.Dyn.cc

let stats t = Circuits.Circuit.stats (circuit t)
let churn_stats t = t.churn

(* --- structural updates: tuple insert/delete --- *)

let m_inserts = Obs.counter ~scope:"engine" "inserts"
let m_deletes = Obs.counter ~scope:"engine" "deletes"
let m_localized = Obs.counter ~scope:"engine" "structural_localized"
let m_struct_fallbacks = Obs.counter ~scope:"engine" "structural_fallbacks"

(* Journal the committed structural op on whatever journal the (possibly
   just-replaced) structure carries, so a replay interleaves weight
   batches and tuple ops in commit order. *)
let journal_structural t ~insert rel tuple =
  match Circuits.Dyn.journal t.dyn with
  | Some j -> Circuits.Journal.append_structural j ~insert ~rel ~tup:tuple
  | None -> ()

(* One structural update: apply the tuple delta to the instance and the
   live Gaifman graph, let {!Compile.recompile_local} maintain the circuit
   (localized, or a full compile past the amortization trigger), splice
   the new circuit in, journal the op. {!Circuits.Dyn.splice} builds the
   new structure aside, seeded from the old one's input values, then
   [unread], then the weights store. Transactional: any fault before
   commit reverts the instance and graph deltas, so the served state
   stays the pre-update one (the splice never mutates the old
   structure). *)
let structural (t : 'a t) ~insert rel tuple : unit =
  Obs.Trace.span ~scope:"engine" (if insert then "insert_tuple" else "delete_tuple")
  @@ fun () ->
  let live = t.plan.Compile.pl_live in
  let has_edges = List.length tuple >= 2 in
  (* 1. the instance delta — [add] rejects duplicates, and a delete of an
     absent tuple is equally ambiguous, so both directions validate *)
  if insert then Db.Instance.add t.inst rel tuple
  else if Db.Instance.mem t.inst rel tuple then Db.Instance.remove t.inst rel tuple
  else
    Robust.bad_input "Eval.delete_tuple: tuple %s(%s) not present" rel
      (String.concat "," (List.map string_of_int tuple));
  (* 2. mirror it in the live graph, one pair-incidence at a time — the
     same enumeration [Db.Instance.live_gaifman] seeded it with *)
  if has_edges then
    Db.Instance.tuple_pairs tuple (fun x y ->
        if insert then ignore (Graphs.Live.add_edge live x y)
        else ignore (Graphs.Live.remove_edge live x y));
  let revert () =
    if has_edges then
      Db.Instance.tuple_pairs tuple (fun x y ->
          if insert then ignore (Graphs.Live.remove_edge live x y)
          else ignore (Graphs.Live.add_edge live x y));
    if insert then Db.Instance.remove t.inst rel tuple else Db.Instance.add t.inst rel tuple;
    (* the recompile pre-flight may have cached forests against the now
       reverted graph; drop them so nothing stale survives the abort *)
    match Graphs.Live.coloring live with
    | Some _ ->
        Graphs.Live.invalidate live
          ~touched_colors:(Graphs.Live.colors_of live (List.sort_uniq compare tuple))
    | None -> ()
  in
  let protect f = match f () with v -> v | exception e -> revert (); raise e in
  let circuit, meta, plan, localized =
    protect (fun () -> Compile.recompile_local t.plan ~touched:(List.sort_uniq compare tuple))
  in
  let old_dyn = t.dyn in
  let valuation key =
    match Circuits.Dyn.input_value old_dyn key with
    | Some v -> v
    | None -> (
        match Hashtbl.find_opt t.unread key with
        | Some v -> v
        | None -> t.base_valuation key)
  in
  let dyn = protect (fun () -> Circuits.Dyn.splice old_dyn circuit valuation) in
  let reads = Circuits.Dyn.has_input dyn in
  Hashtbl.filter_map_inplace (fun key v -> if reads key then None else Some v) t.unread;
  (* keys the new circuit stops reading keep their last value; a splice
     leaves the old structure's values as they were *)
  Array.iter
    (fun key ->
      if not (reads key) then
        Hashtbl.replace t.unread key (Option.get (Circuits.Dyn.input_value old_dyn key)))
    old_dyn.Circuits.Dyn.cc.Circuits.Compact.input_keys;
  t.dyn <- dyn;
  t.meta <- meta;
  t.plan <- plan;
  t.churn.ch_gates_rebuilt <- t.churn.ch_gates_rebuilt + Circuits.Dyn.num_gates dyn;
  if localized then begin
    t.churn.ch_localized <- t.churn.ch_localized + 1;
    Obs.Counter.incr m_localized
  end
  else begin
    t.churn.ch_fallbacks <- t.churn.ch_fallbacks + 1;
    Obs.Counter.incr m_struct_fallbacks
  end;
  if insert then begin
    t.churn.ch_inserts <- t.churn.ch_inserts + 1;
    Obs.Counter.incr m_inserts
  end
  else begin
    t.churn.ch_deletes <- t.churn.ch_deletes + 1;
    Obs.Counter.incr m_deletes
  end;
  journal_structural t ~insert rel tuple

(** Insert a tuple into relation [rel] and maintain the compiled circuit
    by a localized incremental recompile: only the color subsets whose
    subset contains every touched color are recompiled, the rest is copied
    gate for gate, and the runtime is rebuilt from the new circuit.
    Duplicate inserts raise [Bad_input]. *)
let insert_tuple t rel tuple = structural t ~insert:true rel tuple

(** Delete a tuple; the exact inverse of {!insert_tuple} (deleting an
    absent tuple raises [Bad_input]). *)
let delete_tuple t rel tuple = structural t ~insert:false rel tuple

(** Attach (or return) the update journal of the backing structure; it
    survives structure replacements — every splice inherits it — so one
    journal covers a whole churn history. *)
let enable_journal t = Circuits.Dyn.enable_journal t.dyn

(** Re-apply a journal's committed batches — weight waves {e and}
    structural ops — in commit order. Run against a freshly prepared [t]
    on the pre-journal instance and weights, this reconstructs the exact
    served state: values, circuit shape, plan. The structure's own
    journal is suspended for the duration (across structure replacements)
    so replayed batches are not re-appended. *)
let replay (t : 'a t) (j : 'a Circuits.Journal.t) : unit =
  (match Circuits.Journal.verify j with
  | Some seq -> Robust.bad_input "Eval.replay: journal batch %d fails its checksum" seq
  | None -> ());
  let saved = Circuits.Dyn.journal t.dyn in
  Circuits.Dyn.set_journal t.dyn None;
  Fun.protect
    ~finally:(fun () -> Circuits.Dyn.set_journal t.dyn saved)
    (fun () ->
      List.iter
        (fun b ->
          match Circuits.Journal.structural b with
          | Some s ->
              structural t ~insert:s.Circuits.Journal.s_insert s.Circuits.Journal.s_rel
                s.Circuits.Journal.s_tup
          | None ->
              let read, unread = split_read t (Circuits.Journal.writes b) in
              Circuits.Dyn.set_inputs t.dyn read;
              write_unread t unread)
        (Circuits.Journal.batches j))

(** Per-operation cost attribution (Theorem 8 made inspectable): what one
    query or one update batch actually spent — wall time, gate
    recomputations (split per propagation wave), minor-heap allocation,
    and GC activity observed during the operation. The gate numbers come
    from the same [update_ops] odometer that feeds the cumulative "dyn"
    counters, so for any bracket of operations
    Σ [gates_visited] = Δ sparseq dyn/touched_gates — exactly; the test
    suite and `sparseq stats --cost` cross-check that identity. *)
module Cost = struct
  type t = {
    wall_ns : float;  (** wall-clock duration of the operation *)
    gates_visited : int;  (** gate recomputations (one-shot eval: gates evaluated) *)
    waves : int;
        (** propagation waves: committed ones and a query's what-if (one-shot
            eval: 0) *)
    wave_touched : int list;  (** [gates_visited] split per wave, in wave order *)
    minor_words : float;  (** minor-heap words allocated *)
    gc_minor : int;  (** minor collections observed *)
    gc_major : int;  (** major collections observed *)
  }

  let zero =
    {
      wall_ns = 0.;
      gates_visited = 0;
      waves = 0;
      wave_touched = [];
      minor_words = 0.;
      gc_minor = 0;
      gc_major = 0;
    }

  (** Aggregate two reports (waves concatenate in order). *)
  let add a b =
    {
      wall_ns = a.wall_ns +. b.wall_ns;
      gates_visited = a.gates_visited + b.gates_visited;
      waves = a.waves + b.waves;
      wave_touched = a.wave_touched @ b.wave_touched;
      minor_words = a.minor_words +. b.minor_words;
      gc_minor = a.gc_minor + b.gc_minor;
      gc_major = a.gc_major + b.gc_major;
    }

  let to_json c =
    Obs.Json.O
      [
        ("wall_ns", Obs.Json.F c.wall_ns);
        ("gates_visited", Obs.Json.I c.gates_visited);
        ("waves", Obs.Json.I c.waves);
        ("wave_touched", Obs.Json.A (List.map (fun n -> Obs.Json.I n) c.wave_touched));
        ("minor_words", Obs.Json.F c.minor_words);
        ("gc_minor", Obs.Json.I c.gc_minor);
        ("gc_major", Obs.Json.I c.gc_major);
      ]

  let summary c =
    Printf.sprintf
      "wall %.0fns  gates %d in %d wave%s  minor_words %.0f  gc %d minor / %d major"
      c.wall_ns c.gates_visited c.waves
      (if c.waves = 1 then "" else "s")
      c.minor_words c.gc_minor c.gc_major
end

(** Measure [f]'s cost against [t]'s dynamic circuit: a per-wave cost sink
    is attached for the duration ({!Circuits.Dyn.set_cost_log}), the gate
    odometer and [Gc.quick_stat] are read on both sides. Detaches the sink
    on every exit path. Not reentrant (one sink at a time), matching the
    engine's single-writer update discipline. *)
let with_cost (t : 'a t) (f : unit -> 'b) : 'b * Cost.t =
  let sink = ref [] in
  Circuits.Dyn.set_cost_log t.dyn (Some sink);
  let finish () = Circuits.Dyn.set_cost_log t.dyn None in
  let ops0 = Circuits.Dyn.update_ops t.dyn in
  let g0 = Gc.quick_stat () in
  let t0 = Obs.now_ns () in
  match f () with
  | r ->
      let wall_ns = Obs.elapsed_ns t0 in
      let g1 = Gc.quick_stat () in
      finish ();
      let wave_touched = List.rev !sink in
      ( r,
        {
          Cost.wall_ns;
          gates_visited = Circuits.Dyn.update_ops t.dyn - ops0;
          waves = List.length wave_touched;
          wave_touched;
          minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
          gc_minor = g1.Gc.minor_collections - g0.Gc.minor_collections;
          gc_major = g1.Gc.major_collections - g0.Gc.major_collections;
        } )
  | exception e ->
      finish ();
      raise e

(** {!query} with its cost report: one what-if wave, which writes
    nothing but is charged like a committed one. *)
let query_cost (t : 'a t) (args : int list) : 'a * Cost.t = with_cost t (fun () -> query t args)

(** {!update_many} with its cost report (1 committed wave when anything
    changed). *)
let update_many_cost (t : 'a t) (updates : (string * int list * 'a) list) : Cost.t =
  let (), c = with_cost t (fun () -> update_many t updates) in
  c

(** One-shot static evaluation of a closed expression through the circuit
    pipeline (compile + one linear evaluation, no dynamic structures): the
    optimized circuit is frozen into the CSR layout of {!Circuits.Compact}
    and evaluated over a flat value array. [?cost] receives a {!Cost.t} for the
    evaluation proper (compile excluded): every gate is evaluated exactly
    once, so [gates_visited] is the circuit's gate count and [waves] 0. *)
let evaluate (type a) (ops : a Semiring.Intf.ops) ?opt ?tfa_rounds ?max_depth ?budget
    ?(cost : Cost.t option ref option)
    (inst : Db.Instance.t) (weights : a Db.Weights.bundle) (expr : a Logic.Expr.t) : a =
  let open Semiring.Intf in
  let circuit, _ =
    Compile.compile ~zero:ops.zero ~one:ops.one ~equal:ops.equal ?opt ?tfa_rounds
      ?max_depth ?budget inst expr
  in
  let valuation (w, tuple) = Db.Weights.get (Db.Weights.find weights w) tuple in
  let run () = Circuits.Compact.eval ops (Circuits.Compact.of_circuit circuit) valuation in
  match cost with
  | None -> run ()
  | Some cell ->
      let g0 = Gc.quick_stat () in
      let t0 = Obs.now_ns () in
      let v = run () in
      let wall_ns = Obs.elapsed_ns t0 in
      let g1 = Gc.quick_stat () in
      cell :=
        Some
          {
            Cost.wall_ns;
            gates_visited = Array.length circuit.Circuits.Circuit.nodes;
            waves = 0;
            wave_touched = [];
            minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
            gc_minor = g1.Gc.minor_collections - g0.Gc.minor_collections;
            gc_major = g1.Gc.major_collections - g0.Gc.major_collections;
          };
      v

(* --- checked entry points (the robustness layer) --- *)

(** How a checked entry point reacts to a degradable compile failure
    ([Budget_exceeded] or [Unsupported_fragment]): [`Naive] falls back to
    the brute-force {!Reference} evaluator, [`Fail] returns the error. *)
type fallback = [ `Naive | `Fail ]

type 'a backend = Circuit of 'a t | Degraded of 'a Reference.prepared

(** How a checked entry point reacts to a fault mid-update-wave:
    - [`Fail] — report the error immediately; the wave was rolled back, so
      the circuit and the weights store still agree on the pre-update state.
    - [`Rollback] (default) — retry the update up to [retries] times with
      exponential backoff (transient faults vanish on a re-run); report the
      error, state rolled back, when the attempts are exhausted.
    - [`Repair] — like [`Rollback], but when a wave's own rollback failed
      (the structure is poisoned) rebuild it from the stored inputs with
      {!Circuits.Dyn.repair}, re-align the failed batch's inputs with the
      committed weights, and retry. *)
type recovery = [ `Rollback | `Repair | `Fail ]

(** A prepared query that can never escape an unclassified exception:
    either a compiled circuit or (after degradation) a reference state,
    plus the optional self-check configuration. *)
type 'a checked = {
  backend : 'a backend;
  degraded_because : Robust.error option;  (** why the reference backend is in use *)
  self_check : bool;
  sc_samples : int;
  recover : recovery;
  retries : int;  (** extra attempts after the first failed one *)
  backoff_ms : float;  (** base backoff; attempt i waits backoff·2ⁱ ms *)
  c_ops : 'a Semiring.Intf.ops;
  c_inst : Db.Instance.t;
  c_weights : 'a Db.Weights.bundle;
  c_expr : 'a Logic.Expr.t;
  c_fv : string list;
}

let degraded ck = ck.degraded_because
let checked_free_vars ck = ck.c_fv

let self_check_env () =
  match Sys.getenv_opt "SPARSEQ_SELF_CHECK" with
  | Some ("1" | "true" | "yes" | "on") -> true
  | _ -> false

(** [SPARSEQ_RECOVER] overrides the default recovery policy of every
    checked preparation that does not pass [~recover] explicitly. *)
let recover_env () : recovery option =
  match Option.map String.lowercase_ascii (Sys.getenv_opt "SPARSEQ_RECOVER") with
  | Some "fail" -> Some `Fail
  | Some "rollback" -> Some `Rollback
  | Some "repair" -> Some `Repair
  | _ -> None

(* The waiter behind retry backoff, injectable so tests (and the chaos
   harness) can record the schedule instead of actually sleeping. *)
let default_retry_sleep seconds = if seconds > 0. then Unix.sleepf seconds
let retry_sleep : (float -> unit) ref = ref default_retry_sleep

let set_retry_sleep = function
  | Some f -> retry_sleep := f
  | None -> retry_sleep := default_retry_sleep

(* Classify engine exceptions beyond the generic Robust backstop; if the
   underlying dyn circuit got poisoned, that dominates every other reading
   of the failure. *)
let classify_engine (backend : 'a backend option) (e : exn) : Robust.error option =
  let base =
    match e with
    | Circuits.Dyn.Poisoned msg ->
        Some (Robust.Internal_divergence ("dynamic circuit poisoned: " ^ msg))
    | Circuits.Dyn.Rolled_back msg ->
        Some
          (Robust.Internal_divergence
             ("update fault rolled back, circuit state unchanged: " ^ msg))
    | Logic.Normal.Not_quantifier_free f ->
        Some
          (Robust.Unsupported_fragment
             (Format.asprintf "quantifier inside a compiled guard: %a" Logic.Formula.pp f))
    | _ -> Robust.classify_exn e
  in
  match backend with
  | Some (Circuit t) -> (
      match (base, Circuits.Dyn.poisoned t.dyn) with
      | Some (Robust.Internal_divergence _), _ | _, None -> base
      | Some err, Some _ ->
          Some
            (Robust.Internal_divergence
               (Printf.sprintf "update fault poisoned the circuit (%s)"
                  (Robust.to_string err)))
      | None, Some fault ->
          Some
            (Robust.Internal_divergence ("update fault poisoned the circuit: " ^ fault)))
  | _ -> base

(* Deterministic sample of query-argument tuples for the self-check. *)
let sample_args ~n ~k ~samples =
  if n = 0 || k = 0 then []
  else begin
    let state = ref 0x9e3779b9 in
    let next bound =
      state := (!state * 1103515245) + 12345;
      (!state land 0x3FFFFFFF) mod bound
    in
    List.init samples (fun _ -> List.init k (fun _ -> next n))
  end

(* Cross-validate the circuit against the reference evaluator on the
   current weights: the closed value, plus sampled query points when the
   expression has free variables. Raises [Internal_divergence]. *)
let self_check_now (ck : 'a checked) : unit =
  match ck.backend with
  | Degraded _ -> ()
  | Circuit t ->
      let ops = ck.c_ops in
      if ck.c_fv = [] then begin
        let got = value t in
        let want = Reference.eval ops ck.c_inst ck.c_weights ck.c_expr in
        if not (ops.Semiring.Intf.equal got want) then
          Robust.divergence "self-check: circuit value disagrees with reference evaluator"
      end
      else
        List.iter
          (fun args ->
            let got = query t args in
            let want =
              Reference.eval ops ck.c_inst ck.c_weights
                ~env:(List.combine ck.c_fv args) ck.c_expr
            in
            if not (ops.Semiring.Intf.equal got want) then
              Robust.divergence
                "self-check: circuit disagrees with reference at query (%s)"
                (String.concat "," (List.map string_of_int args)))
          (sample_args ~n:(Db.Instance.n ck.c_inst) ~k:(List.length ck.c_fv)
             ~samples:ck.sc_samples)

(** Checked preparation: classifies every exception the pipeline can raise
    into [Robust.error], and on a degradable failure (budget, unsupported
    fragment) with [~fallback:`Naive] (the default) transparently falls
    back to the brute-force reference evaluator. [~self_check:true] (or
    [SPARSEQ_SELF_CHECK=1]) cross-validates circuit values against the
    reference at preparation, on sampled query points, and after every
    {!update_checked}. *)
let prepare_checked (type a) (ops : a Semiring.Intf.ops) ?mode ?opt ?tfa_rounds ?max_depth ?budget ?(fallback : fallback = `Naive) ?self_check
    ?(self_check_samples = 4) ?(recover : recovery option) ?(retries = 2)
    ?(backoff_ms = 1.0) (inst : Db.Instance.t) (weights : a Db.Weights.bundle)
    (expr : a Logic.Expr.t) : (a checked, Robust.error) result =
  let self_check =
    match self_check with Some b -> b | None -> self_check_env ()
  in
  let recover =
    match recover with
    | Some r -> r
    | None -> ( match recover_env () with Some r -> r | None -> `Rollback)
  in
  let mk backend degraded_because =
    {
      backend;
      degraded_because;
      self_check;
      sc_samples = self_check_samples;
      recover;
      retries = max 0 retries;
      backoff_ms = max 0. backoff_ms;
      c_ops = ops;
      c_inst = inst;
      c_weights = weights;
      c_expr = expr;
      c_fv = Logic.Expr.free_vars_unique expr;
    }
  in
  match
    Robust.protect
      ~classify:(classify_engine None)
      (fun () ->
        prepare ops ?mode ?opt ?tfa_rounds ?max_depth ?budget inst weights expr)
  with
  | Ok t ->
      let ck = mk (Circuit t) None in
      if self_check then
        Robust.protect ~classify:(classify_engine (Some ck.backend)) (fun () ->
            self_check_now ck;
            ck)
      else Ok ck
  | Error e when Robust.degradable e && fallback = `Naive ->
      Obs.Counter.incr m_degraded;
      Robust.protect (fun () -> mk (Degraded (Reference.prepare ops inst weights expr)) (Some e))
  | Error e -> Error e

(** Current value of a checked query (with the self-check, when enabled). *)
let value_checked (ck : 'a checked) : ('a, Robust.error) result =
  Robust.protect
    ~classify:(classify_engine (Some ck.backend))
    (fun () ->
      if ck.self_check then self_check_now ck;
      match ck.backend with Circuit t -> value t | Degraded r -> Reference.value r)

(** Value at a tuple (one element per free variable). *)
let query_checked (ck : 'a checked) (args : int list) : ('a, Robust.error) result =
  Robust.protect
    ~classify:(classify_engine (Some ck.backend))
    (fun () ->
      match ck.backend with
      | Circuit t ->
          let got = query t args in
          if ck.self_check then begin
            let want =
              Reference.eval ck.c_ops ck.c_inst ck.c_weights
                ~env:(List.combine ck.c_fv args) ck.c_expr
            in
            if not (ck.c_ops.Semiring.Intf.equal got want) then
              Robust.divergence
                "self-check: circuit disagrees with reference at query (%s)"
                (String.concat "," (List.map string_of_int args))
          end;
          got
      | Degraded r -> Reference.query r args)

(* The self-healing big hammer behind [`Repair]: a wave's rollback failed,
   so rebuild every derived value from the stored inputs, then push the
   failed batch's own input gates back to the committed weights-store
   values — those gates may have been stamped with the new values before
   the fault, and the weights store is only written after a successful
   wave, so this re-aligns the repaired circuit with the pre-batch state
   the rest of the system still sees. *)
let repair_to_weights (ck : 'a checked) (t : 'a t)
    (updates : (string * int list * 'a) list) : unit =
  Circuits.Dyn.repair t.dyn;
  let pre =
    List.filter_map
      (fun (w, tuple, _) ->
        let key = (w, tuple) in
        if Circuits.Dyn.has_input t.dyn key then
          Some (key, Db.Weights.get (Db.Weights.find ck.c_weights w) tuple)
        else None)
      updates
  in
  Circuits.Dyn.set_inputs t.dyn pre

(* Run one circuit update wave under the checked recovery policy: retry
   rolled-back waves with exponential backoff, optionally repair a
   poisoned structure, and re-raise for the classifier once the attempt
   budget is spent. Invariant on every exit, normal or exceptional (bar a
   fault during recovery itself under persistent fault injection): the
   circuit agrees either with the pre-batch or with the post-batch
   weights, never a third state. *)
let apply_with_recovery (ck : 'a checked) (t : 'a t)
    (updates : (string * int list * 'a) list) (f : unit -> unit) : unit =
  let backoff attempt =
    Obs.Counter.incr m_retries;
    !retry_sleep (ck.backoff_ms *. (2. ** float_of_int attempt) /. 1000.)
  in
  let rec go attempt =
    try f ()
    with e ->
      if Circuits.Dyn.poisoned t.dyn <> None then
        if ck.recover = `Repair then begin
          repair_to_weights ck t updates;
          if attempt < ck.retries then begin
            backoff attempt;
            go (attempt + 1)
          end
          else raise e
        end
        else raise e
      else
        match (e, ck.recover) with
        | Circuits.Dyn.Rolled_back _, (`Rollback | `Repair) when attempt < ck.retries ->
            backoff attempt;
            go (attempt + 1)
        | _ -> raise e
  in
  go 0

(** Batched checked update: the whole batch is validated against the
    weight bundle, then the circuit sees one (transactional) propagation
    wave, and only after it commits does every write go through to the
    weight bundle — so the reference fallback and the self-check observe
    either the full batch or none of it. The self-check, when enabled,
    runs once per batch rather than once per update. A fault mid-batch is
    handled per the [recover] policy (retry, repair, or report with the
    state rolled back). [?cost] receives the batch's {!Cost.t} (retries
    included in the measured bracket; a degraded backend leaves the cell
    untouched). *)
let update_many_checked ?(cost : Cost.t option ref option) (ck : 'a checked)
    (updates : (string * int list * 'a) list) : (unit, Robust.error) result =
  Robust.protect
    ~classify:(classify_engine (Some ck.backend))
    (fun () ->
      let cols =
        List.map
          (fun (w, tuple, v) ->
            let col = Db.Weights.find ck.c_weights w in
            if List.length tuple <> Db.Weights.arity col then
              Robust.bad_input "Eval.update_many: %s expects arity %d" w
                (Db.Weights.arity col);
            (col, tuple, v))
          updates
      in
      (match ck.backend with
      | Circuit t -> (
          let run () = apply_with_recovery ck t updates (fun () -> update_many t updates) in
          match cost with
          | None -> run ()
          | Some cell ->
              let (), c = with_cost t run in
              cell := Some c)
      | Degraded _ -> ());
      List.iter (fun (col, tuple, v) -> Db.Weights.set col tuple v) cols;
      if ck.self_check then self_check_now ck)

(** Update one weight: a one-write {!update_many_checked}. Unlike the
    unchecked {!update}, this writes through to the weight bundle as well,
    so the circuit, the reference fallback, and the self-check all observe
    the same state — and only {e after} the circuit wave committed, so a
    rolled-back fault cannot leave the weights store disagreeing with
    circuit state. The symbol and the tuple's arity are validated before
    anything changes, so a rejected write leaves no trace (no circuit
    wave, no journal record). A fault mid-update surfaces as
    [Internal_divergence] and never leaves a silently corrupt value
    behind. *)
let update_checked (ck : 'a checked) (w : string) (tuple : int list) (v : 'a) :
    (unit, Robust.error) result =
  update_many_checked ck [ (w, tuple, v) ]

(* Checked structural update: on the circuit backend run the full
   localized-recompile machinery (which reverts the instance and graph on
   any fault, so the pre-update state is intact under every [Error]) under
   the same recovery policy as weight waves — a rolled-back splice fault
   is retried from the reverted pre-update state, and a poisoned structure
   is repaired in place first under [`Repair] (no weight writes to
   re-align: the revert already restored the instance). On the degraded
   backend mutate the instance only — the reference evaluator always
   reads the live instance, so both backends observe the same tuple set.
   The optional self-check cross-validates the spliced circuit against
   the reference on the post-update instance. *)
let structural_checked (ck : 'a checked) ~insert rel tuple : (unit, Robust.error) result =
  Robust.protect
    ~classify:(classify_engine (Some ck.backend))
    (fun () ->
      (match ck.backend with
      | Circuit t -> apply_with_recovery ck t [] (fun () -> structural t ~insert rel tuple)
      | Degraded _ ->
          if insert then Db.Instance.add ck.c_inst rel tuple
          else if Db.Instance.mem ck.c_inst rel tuple then
            Db.Instance.remove ck.c_inst rel tuple
          else
            Robust.bad_input "Eval.delete_tuple: tuple %s(%s) not present" rel
              (String.concat "," (List.map string_of_int tuple)));
      if ck.self_check then self_check_now ck)

(** Checked {!insert_tuple}: classified errors, pre-update state preserved
    on failure, self-check (when enabled) after the splice commits. *)
let insert_tuple_checked ck rel tuple = structural_checked ck ~insert:true rel tuple

(** Checked {!delete_tuple}. *)
let delete_tuple_checked ck rel tuple = structural_checked ck ~insert:false rel tuple

(** Inject a fault hook into the underlying dynamic circuit (tests only);
    no-op on a degraded backend. *)
let set_fault_hook (ck : 'a checked) (h : (int -> unit) option) : unit =
  match ck.backend with
  | Circuit t -> Circuits.Dyn.set_fault_hook t.dyn h
  | Degraded _ -> ()

(** Inject a fault hook into the rollback path itself (tests only): the
    way to exercise poisoning now that a plain mid-wave fault rolls back
    cleanly. No-op on a degraded backend. *)
let set_rollback_fault_hook (ck : 'a checked) (h : (unit -> unit) option) : unit =
  match ck.backend with
  | Circuit t -> Circuits.Dyn.set_rollback_fault_hook t.dyn h
  | Degraded _ -> ()

(** Rebuild the backing dynamic circuit from its stored inputs, clearing
    any poison (see {!Circuits.Dyn.repair}); no-op on a degraded backend. *)
let repair_checked (ck : 'a checked) : unit =
  match ck.backend with
  | Circuit t -> Circuits.Dyn.repair t.dyn
  | Degraded _ -> ()

(** One-shot checked evaluation of a closed expression: [Ok (v, None)]
    from the circuit pipeline, [Ok (v, Some reason)] from the reference
    fallback after a degradable failure, [Error _] otherwise. [?cost]
    receives the circuit evaluation's {!Cost.t}; the degraded reference
    path leaves the cell untouched (there is no circuit to attribute to). *)
let evaluate_checked (type a) (ops : a Semiring.Intf.ops) ?opt ?tfa_rounds ?max_depth ?budget ?cost ?(fallback : fallback = `Naive)
    (inst : Db.Instance.t) (weights : a Db.Weights.bundle) (expr : a Logic.Expr.t) :
    (a * Robust.error option, Robust.error) result =
  match
    Robust.protect
      ~classify:(classify_engine None)
      (fun () ->
        evaluate ops ?opt ?tfa_rounds ?max_depth ?budget ?cost inst weights expr)
  with
  | Ok v -> Ok (v, None)
  | Error e when Robust.degradable e && fallback = `Naive ->
      Obs.Counter.incr m_degraded;
      Robust.protect (fun () -> (Reference.eval ops inst weights expr, Some e))
  | Error e -> Error e
