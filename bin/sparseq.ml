(* sparseq — command-line driver for the aggregate-query engine.

   Subcommands:
     stats      compile a query and print circuit statistics (Theorem 6)
     count      evaluate a counting/weighted query (Theorem 8)
     enum       enumerate query answers with constant delay (Theorem 24)
     pagerank   run PageRank rounds as a dynamic weighted query (Example 9)

   All subcommands operate on generated workloads: grid, tri-grid,
   bounded-degree random, sparse random, path, tree.

   Guardrails: --budget-gates and --timeout-ms bound compilation (checked
   cooperatively, Robust.Budget_exceeded on violation); --fallback picks
   what happens on a degradable failure (naive = brute-force reference
   evaluator, fail = report the error). Unknown kinds/queries and every
   classified engine error are reported through Cmdliner with a nonzero
   exit code instead of escaping as a raw backtrace. SPARSEQ_SELF_CHECK=1
   cross-validates circuit values against the reference evaluator. *)

open Cmdliner
open Semiring

let v x = Logic.Term.Var x
let e x y = Logic.Formula.Rel ("E", [ v x; v y ])

(* --- workload selection --- *)

let graph_kinds = [ "grid"; "tri-grid"; "deg3"; "deg4"; "sparse"; "path"; "tree" ]

let make_graph kind n seed =
  let side = max 2 (int_of_float (sqrt (float_of_int n))) in
  match kind with
  | "grid" -> Graphs.Gen.grid side side
  | "tri-grid" -> Graphs.Gen.triangulated_grid side side
  | "deg3" -> Graphs.Gen.random_bounded_degree ~seed ~n ~max_deg:3
  | "deg4" -> Graphs.Gen.random_bounded_degree ~seed ~n ~max_deg:4
  | "sparse" -> Graphs.Gen.random_sparse ~seed ~n ~avg_deg:3
  | "path" -> Graphs.Gen.path n
  | "tree" -> Graphs.Gen.random_tree ~seed ~n
  | _ -> Robust.bad_input "unknown graph kind %s" kind

let query_names = [ "triangle"; "path2"; "edge"; "nonedge"; "has-neighbor" ]

let make_query name =
  match name with
  | "triangle" -> Logic.Formula.And [ e "x" "y"; e "y" "z"; e "z" "x" ]
  | "path2" ->
      Logic.Formula.And [ e "x" "y"; e "y" "z"; Logic.Formula.neq (v "x") (v "z") ]
  | "edge" -> e "x" "y"
  | "nonedge" ->
      Logic.Formula.And
        [ Logic.Formula.neq (v "x") (v "y"); Logic.Formula.Not (e "x" "y") ]
  | "has-neighbor" -> Logic.Formula.Exists ("y", e "x" "y")
  | _ -> Robust.bad_input "unknown query %s" name

(* Arg.enum rejects unknown values with a Cmdliner usage error and a
   nonzero exit code — no raw Invalid_argument backtrace. *)
let graph_arg =
  Arg.(
    value
    & opt (enum (List.map (fun k -> (k, k)) graph_kinds)) "tri-grid"
    & info [ "g"; "graph" ] ~docv:"KIND"
        ~doc:("Workload: " ^ String.concat ", " graph_kinds ^ "."))

let n_arg = Arg.(value & opt int 400 & info [ "n" ] ~docv:"N" ~doc:"Approximate domain size.")
let seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"PRNG seed.")

let query_arg =
  Arg.(
    value
    & opt (enum (List.map (fun q -> (q, q)) query_names)) "triangle"
    & info [ "q"; "query" ] ~docv:"QUERY"
        ~doc:("Query: " ^ String.concat ", " query_names ^ "."))

(* --- guardrail flags --- *)

let budget_term =
  let gates =
    Arg.(
      value & opt int 0
      & info [ "budget-gates" ] ~docv:"GATES"
          ~doc:"Abort compilation after emitting more than $(docv) gates (0 = unlimited).")
  in
  let timeout =
    Arg.(
      value & opt int 0
      & info [ "timeout-ms" ] ~docv:"MS"
          ~doc:"Abort compilation after $(docv) wall-clock milliseconds (0 = unlimited).")
  in
  let mk g t =
    Robust.budget
      ?max_gates:(if g > 0 then Some g else None)
      ?timeout_ms:(if t > 0 then Some t else None)
      ()
  in
  Term.(const mk $ gates $ timeout)

let opt_arg =
  Arg.(
    value
    & opt (enum [ ("default", Opt.default); ("none", Opt.none) ]) Opt.default
    & info [ "opt" ] ~docv:"OPT"
        ~doc:
          "Circuit optimizer: $(b,default) rebuilds the compiled circuit in one sweep \
           over its live gates, merging structurally equal gates and capping fan-in; \
           $(b,none) hands the raw compiler output downstream.")

(* Budget and optimizer setting travel together so every run function
   keeps the fixed arity [guarded] expects. *)
let budget_opt = Term.(const (fun b o -> (b, o)) $ budget_term $ opt_arg)

let load_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "load" ] ~docv:"FILE"
        ~doc:
          "Load a compact circuit previously written by $(b,sparseq compile --save) \
           instead of compiling the query; the workload flags are ignored.")

(* The semiring names stored as the .spqc tag; a loaded circuit's constant
   pool only makes sense in the semiring it was saved under, so the tag is
   checked before evaluating. *)
let check_tag path tag expect =
  if tag <> expect then
    Robust.bad_input "%s was saved under semiring %S; this command evaluates under %S"
      path tag expect

let fallback_arg =
  Arg.(
    value
    & opt (enum [ ("naive", `Naive); ("fail", `Fail) ]) `Naive
    & info [ "fallback" ] ~docv:"MODE"
        ~doc:
          "On budget exhaustion or an unsupported fragment: $(b,naive) degrades to the \
           brute-force reference evaluator, $(b,fail) reports the error.")

let recover_arg =
  Arg.(
    value
    & opt
        (some (enum [ ("rollback", `Rollback); ("repair", `Repair); ("fail", `Fail) ]))
        None
    & info [ "recover" ] ~docv:"POLICY"
        ~env:(Cmd.Env.info "SPARSEQ_RECOVER")
        ~doc:
          "What a fault during a dynamic update wave does after the wave is rolled \
           back: $(b,rollback) retries the update a bounded number of times with \
           backoff, $(b,repair) additionally rebuilds a poisoned circuit in place \
           before retrying, $(b,fail) reports the error immediately (the circuit \
           still rolls back to its pre-update state). Defaults to $(b,rollback).")

(* Fallback and recovery policy travel together, like budget/opt, to keep
   the fixed arity [guarded] expects. *)
let fallback_recover = Term.(const (fun f r -> (f, r)) $ fallback_arg $ recover_arg)

let metrics_arg =
  Arg.(
    value
    & opt ~vopt:(Some `Human)
        (some
           (enum [ ("json", `Json); ("human", `Human); ("openmetrics", `Openmetrics) ]))
        None
    & info [ "metrics" ] ~docv:"FORMAT"
        ~doc:
          "Print the engine metrics snapshot (counters, gauges, latency histograms with \
           their quantiles) after the run, as $(b,human) text, $(b,json), or an \
           $(b,openmetrics) text exposition (Prometheus-scrapeable). Printed even when \
           the run fails or an output file cannot be written, so budget violations \
           leave a trace.")

let metrics_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-out" ] ~docv:"FILE"
        ~doc:
          "Write an OpenMetrics text exposition of the engine metrics to $(docv) once, \
           at exit (also when the run fails). The write is atomic (temp file + \
           rename), so a reader never sees a torn file.")

(* Snapshot format and exposition file travel together so every run
   function keeps the fixed arity [guarded] expects. *)
let metrics_term = Term.(const (fun m o -> (m, o)) $ metrics_arg $ metrics_out_arg)

let print_metrics = function
  | None -> ()
  | Some `Json -> print_endline (Obs.snapshot ())
  | Some `Human -> print_string (Obs.snapshot_human ())
  | Some `Openmetrics -> print_string (Obs.Openmetrics.render ())

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Record a hierarchical span trace of the run and write it to $(docv) as \
           Chrome trace-event JSON (open in Perfetto or chrome://tracing). Written \
           even when the run fails, so a budget violation leaves its trace behind.")

(* Write [text] to an output file through the crash-safe path and say so
   on stderr; a failure comes back as the message naming the file, not as
   an exception. *)
let write_output ~what ?(note = "") path text =
  match Obs.write_file_atomic path (fun oc -> output_string oc text) with
  | () ->
      Printf.eprintf "%s written to %s%s\n%!" what path note;
      None
  | exception Sys_error msg -> Some (Printf.sprintf "cannot write %s file %s: %s" what path msg)

(* Unwrap a checked result inside a run function; the uniform handler below
   turns the raise into a Cmdliner error with exit code 1. *)
let ok = function Ok x -> x | Error e -> raise (Robust.Error e)

(* Wrap a run function so classified engine errors become Cmdliner-reported
   errors (exit 1) rather than raw backtraces. At exit, on both paths, the
   exposition file and the span trace (when requested) are each written
   once, each attempted whatever became of the other, and the metrics
   snapshot is printed; a failed write is reported as an error too. *)
let guarded run =
 fun (metrics, metrics_out) trace a b c d e f ->
  if trace <> None then Obs.Trace.start_recording ();
  let finish () =
    let metrics_err =
      Option.bind metrics_out (fun path ->
          write_output ~what:"metrics" path (Obs.Openmetrics.render ()))
    in
    let trace_err =
      Option.bind trace (fun path ->
          let records = Obs.Trace.stop_recording () in
          write_output ~what:"trace" path
            ~note:(Printf.sprintf " (%d records)" (List.length records))
            (Obs.Json.to_string (Obs.Trace.to_chrome records) ^ "\n"))
    in
    print_metrics metrics;
    List.filter_map Fun.id [ metrics_err; trace_err ]
  in
  let result = match run a b c d e f with v -> Ok v | exception Robust.Error err -> Error err in
  match (result, finish ()) with
  | Ok v, [] -> `Ok v
  | Ok _, errs -> `Error (false, String.concat "\n" errs)
  | Error err, errs -> `Error (false, String.concat "\n" (Robust.to_string err :: errs))

let setup kind n seed =
  let g = make_graph kind n seed in
  let inst = Db.Instance.of_graph g in
  Printf.printf "workload %s: %d elements, %d tuples\n" kind (Db.Instance.n inst)
    (Db.Instance.size inst);
  (g, inst)

let note_degraded = function
  | None -> ()
  | Some reason ->
      Printf.printf "degraded to reference evaluator (%s)\n" (Robust.to_string reason)

(* --- stats --- *)

(* Exact quantile of a sorted sample array (used for the update-latency
   report). *)
let sample_quantile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.
  else sorted.(min (n - 1) (int_of_float (Float.of_int n *. q)))

(* Cumulative dyn/touched_gates counter, the odometer the per-query cost
   reports must agree with exactly. *)
let touched_gates_total () =
  match Obs.find ~scope:"dyn" "touched_gates" with
  | Some (Obs.C c) -> Obs.Counter.get c
  | _ -> 0

let stats_cmd =
  let updates_arg =
    Arg.(
      value & opt int 1000
      & info [ "updates" ] ~docv:"K"
          ~doc:"Random weight updates to time on the dynamic circuit (0 = skip).")
  in
  let batch_arg =
    Arg.(
      value & opt int 1
      & info [ "batch" ] ~docv:"N"
          ~doc:
            "Apply the timed updates in batches of $(docv) through the batched \
             propagation wave (Eval.update_many); 1 = one wave per update.")
  in
  let cost_arg =
    Arg.(
      value & flag
      & info [ "cost" ]
          ~doc:
            "Attribute cost to each timed update (wall ns, gates recomputed per wave, \
             minor-heap words, GC collections observed), print the aggregate report, \
             and cross-check the summed gate counts against the cumulative dyn/* \
             counters — the two must agree exactly.")
  in
  let churn_arg =
    Arg.(
      value & opt int 0
      & info [ "churn" ] ~docv:"K"
          ~doc:
            "Mixed churn: $(docv) further operations alternating between random weight \
             updates and structural edge toggles (insert the arc pair if absent, delete \
             it if present) served through the localized-recompile path; reports \
             per-kind latency quantiles plus the localized/fallback split and the \
             runtime gates the splices rebuilt (0 = skip).")
  in
  let run kind n seed qname (budget, opt) ((updates, batch, cost, churn), load)
      =
    match load with
    | Some path ->
        (* A persisted circuit carries no workload: print what the file holds. *)
        let cc, tag = Circuits.Compact.load path in
        let cs = Circuits.Circuit.stats (Circuits.Compact.to_circuit cc) in
        Printf.printf "loaded %s (tag %S)\n" path tag;
        Format.printf "circuit: %a@." Circuits.Circuit.pp_stats cs
    | None ->
    let _, inst = setup kind n seed in
    let phi = make_query qname in
    let fv = Logic.Formula.free_vars_unique phi in
    let expr = Logic.Expr.Sum (fv, Logic.Expr.Guard phi) in
    let t0 = Obs.now_ns () in
    let c, m = Engine.Compile.compile ~tfa_rounds:1 ~budget ~opt ~zero:0 ~one:1 inst expr in
    let dt = Obs.elapsed_ns t0 /. 1e9 in
    let cs = Circuits.Circuit.stats c in
    Format.printf "compiled %s in %.3fs@." qname dt;
    Format.printf "pipeline: %a@." Engine.Compile.pp_meta m;
    Format.printf "circuit: %a@." Circuits.Circuit.pp_stats cs;
    (* Theorem 8 update latency: the weighted variant Σ_x̄ [φ]·w(x₁) is
       prepared as a dynamic circuit and hit with random weight updates. *)
    if (updates > 0 || churn > 0) && fv <> [] then begin
      let nat_ops = Intf.ops_of_module (module Instances.Nat) in
      let nn = Db.Instance.n inst in
      let w = Db.Weights.create ~name:"w" ~arity:1 ~zero:0 in
      Db.Weights.fill_unary w ~n:nn (fun _ -> 1);
      let wexpr =
        Logic.Expr.Sum
          ( fv,
            Logic.Expr.Mul
              [ Logic.Expr.Guard phi; Logic.Expr.Weight ("w", [ v (List.hd fv) ]) ] )
      in
      let ev =
        Engine.Eval.prepare nat_ops ~opt ~tfa_rounds:1 ~budget inst
          (Db.Weights.bundle [ w ]) wexpr
      in
      let rng = Random.State.make [| seed; 0x5eed |] in
      let agg = ref Engine.Eval.Cost.zero in
      let touched0 = touched_gates_total () in
      let report_cost () =
        let c = !agg in
        Printf.printf "cost: %s\n" (Engine.Eval.Cost.summary c);
        if updates > 0 then
          Printf.printf "cost/update: %.1f gates  %.0f minor words\n"
            (float_of_int c.Engine.Eval.Cost.gates_visited /. float_of_int updates)
            (c.Engine.Eval.Cost.minor_words /. float_of_int updates);
        let delta = touched_gates_total () - touched0 in
        Printf.printf "cost cross-check: sum(gates_visited) %d vs dyn/touched_gates delta %d (%s)\n"
          c.Engine.Eval.Cost.gates_visited delta
          (if c.Engine.Eval.Cost.gates_visited = delta then "exact" else "MISMATCH")
      in
      if updates > 0 && batch <= 1 then begin
        let samples = Array.make updates 0. in
        for i = 0 to updates - 1 do
          let x = Random.State.int rng nn in
          let w' = Random.State.int rng 5 in
          let u0 = Obs.now_ns () in
          if cost then begin
            let (), c =
              Engine.Eval.with_cost ev (fun () -> Engine.Eval.update ev "w" [ x ] w')
            in
            agg := Engine.Eval.Cost.add !agg c
          end
          else Engine.Eval.update ev "w" [ x ] w';
          samples.(i) <- Obs.elapsed_ns u0
        done;
        Array.sort compare samples;
        Format.printf "updates: %d  p50 %.0fns  p99 %.0fns  (value now %d)@." updates
          (sample_quantile samples 0.5)
          (sample_quantile samples 0.99)
          (Engine.Eval.value ev);
        if cost then report_cost ()
      end
      else if updates > 0 then begin
        let nbatches = (updates + batch - 1) / batch in
        let samples = Array.make nbatches 0. in
        let total = ref 0. in
        for i = 0 to nbatches - 1 do
          let size = min batch (updates - (i * batch)) in
          let writes =
            List.init size (fun _ ->
                ("w", [ Random.State.int rng nn ], Random.State.int rng 5))
          in
          let u0 = Obs.now_ns () in
          if cost then
            agg := Engine.Eval.Cost.add !agg (Engine.Eval.update_many_cost ev writes)
          else Engine.Eval.update_many ev writes;
          samples.(i) <- Obs.elapsed_ns u0;
          total := !total +. samples.(i)
        done;
        Array.sort compare samples;
        Format.printf
          "updates: %d in %d batches of %d  batch p50 %.0fns  p99 %.0fns  amortized \
           %.0fns/update  (value now %d)@."
          updates nbatches batch
          (sample_quantile samples 0.5)
          (sample_quantile samples 0.99)
          (!total /. float_of_int updates)
          (Engine.Eval.value ev);
        if cost then begin
          report_cost ();
          Printf.printf "cost waves: %d (one committed wave per batch)\n"
            !agg.Engine.Eval.Cost.waves
        end
      end;
      (* Mixed churn: alternate weight updates with structural edge
         toggles. Toggles stay local (v within a few ids of u) so the
         treedepth witness mostly survives and the localized path gets
         exercised; when an op still deepens the forest past the compiled
         bound, the fallback recompile is what gets timed and counted. *)
      if churn > 0 then begin
        let w_samples = ref [] and s_samples = ref [] in
        for i = 0 to churn - 1 do
          let u0 = Obs.now_ns () in
          if i mod 2 = 0 then begin
            Engine.Eval.update ev "w" [ Random.State.int rng nn ] (Random.State.int rng 5);
            w_samples := Obs.elapsed_ns u0 :: !w_samples
          end
          else begin
            let u = Random.State.int rng nn in
            let v = (u + 1 + Random.State.int rng (min 3 (nn - 1))) mod nn in
            if Db.Instance.mem inst "E" [ u; v ] then begin
              Engine.Eval.delete_tuple ev "E" [ u; v ];
              if Db.Instance.mem inst "E" [ v; u ] then
                Engine.Eval.delete_tuple ev "E" [ v; u ]
            end
            else begin
              Engine.Eval.insert_tuple ev "E" [ u; v ];
              if not (Db.Instance.mem inst "E" [ v; u ]) then
                Engine.Eval.insert_tuple ev "E" [ v; u ]
            end;
            s_samples := Obs.elapsed_ns u0 :: !s_samples
          end
        done;
        let quantiles l =
          let a = Array.of_list l in
          Array.sort compare a;
          (sample_quantile a 0.5, sample_quantile a 0.99)
        in
        let wp50, wp99 = quantiles !w_samples in
        let sp50, sp99 = quantiles !s_samples in
        Printf.printf "churn: %d ops  weight p50 %.0fns p99 %.0fns  structural p50 %.0fns p99 %.0fns\n"
          churn wp50 wp99 sp50 sp99;
        let ch = Engine.Eval.churn_stats ev in
        Printf.printf "churn: %d inserts %d deletes  %d localized %d fallbacks  gates rebuilt %d\n"
          ch.Engine.Eval.ch_inserts ch.Engine.Eval.ch_deletes ch.Engine.Eval.ch_localized
          ch.Engine.Eval.ch_fallbacks ch.Engine.Eval.ch_gates_rebuilt;
        Printf.printf "churn value now: %d\n" (Engine.Eval.value ev)
      end
    end
  in
  let updates_batch =
    Term.(
      const (fun u b c ch l -> ((u, b, c, ch), l))
      $ updates_arg $ batch_arg $ cost_arg $ churn_arg $ load_arg)
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Compile a query, print circuit statistics, and time dynamic updates \
          (Theorems 6 and 8).")
    Term.(
      ret
        (const (guarded run) $ metrics_term $ trace_arg $ graph_arg $ n_arg $ seed_arg $ query_arg
       $ budget_opt $ updates_batch))

(* --- count --- *)

let count_cmd =
  let run kind n seed qname (budget, opt) (fallback, load) =
    match load with
    | Some path ->
        (* Evaluate a persisted circuit directly on the compact runtime.  A
           counting circuit is closed (no Weight gates), so the valuation is
           never consulted; if the file does hold weight inputs, surface that
           as a structured error rather than a silent zero. *)
        let cc, tag = Circuits.Compact.load path in
        check_tag path tag "nat";
        let nat_ops = Intf.ops_of_module (module Instances.Nat) in
        let t0 = Sys.time () in
        let valuation (w, _) =
          Robust.bad_input
            "%s holds weight input %S; count evaluates closed circuits only" path w
        in
        let value = Circuits.Compact.eval nat_ops cc valuation in
        Printf.printf "answers(%s) = %d   (%.3fs)\n" path value (Sys.time () -. t0)
    | None ->
        let _, inst = setup kind n seed in
        let phi = make_query qname in
        let fv = Logic.Formula.free_vars_unique phi in
        let expr = Logic.Expr.Sum (fv, Logic.Expr.Guard phi) in
        let nat_ops = Intf.ops_of_module (module Instances.Nat) in
        let t0 = Sys.time () in
        let value, degraded =
          ok
            (Engine.Eval.evaluate_checked nat_ops ~opt ~tfa_rounds:1
               ~budget ~fallback inst (Db.Weights.bundle []) expr)
        in
        note_degraded degraded;
        Printf.printf "answers(%s) = %d   (%.3fs)\n" qname value (Sys.time () -. t0)
  in
  let fallback_load = Term.(const (fun f l -> (f, l)) $ fallback_arg $ load_arg) in
  Cmd.v (Cmd.info "count" ~doc:"Count the answers of a query through the circuit pipeline.")
    Term.(
      ret
        (const (guarded run) $ metrics_term $ trace_arg $ graph_arg $ n_arg $ seed_arg $ query_arg
       $ budget_opt $ fallback_load))

(* --- enum --- *)

let enum_cmd =
  let limit_arg =
    Arg.(value & opt int 10 & info [ "k"; "limit" ] ~doc:"How many answers to print.")
  in
  let print_answers limit answers total =
    let printed = ref 0 in
    List.iter
      (fun a ->
        if !printed < limit then begin
          incr printed;
          Printf.printf "  (%s)\n" (String.concat "," (List.map string_of_int a))
        end)
      answers;
    Printf.printf "total answers: %d\n" total
  in
  let run kind n seed qname limit ((budget, opt), fallback) =
    let _, inst = setup kind n seed in
    let phi = make_query qname in
    let t0 = Sys.time () in
    match Fo_enum.prepare_checked ~opt ~budget inst phi with
    | Ok t ->
        Printf.printf "preprocessing: %.3fs; free variables: %s\n" (Sys.time () -. t0)
          (String.concat "," (Fo_enum.free_vars t));
        let answers = List.map Array.to_list (Fo_enum.answers t) in
        print_answers limit answers (List.length answers)
    | Error e when Robust.degradable e && fallback = `Naive ->
        note_degraded (Some e);
        let fv, answers = Engine.Reference.answers inst phi in
        Printf.printf "free variables: %s\n" (String.concat "," fv);
        print_answers limit answers (List.length answers)
    | Error e -> raise (Robust.Error e)
  in
  let pair = Term.(const (fun b f -> (b, f)) $ budget_opt $ fallback_arg) in
  Cmd.v
    (Cmd.info "enum" ~doc:"Enumerate query answers with constant delay (Theorem 24).")
    Term.(
      ret
        (const (guarded run) $ metrics_term $ trace_arg $ graph_arg $ n_arg $ seed_arg $ query_arg
       $ limit_arg $ pair))

(* --- pagerank --- *)

let pagerank_cmd =
  let rounds_arg = Arg.(value & opt int 5 & info [ "rounds" ] ~doc:"PageRank rounds.") in
  let run kind n seed rounds (budget, opt) (fallback, recover) =
    let g, inst = setup kind n seed in
    let n = Db.Instance.n inst in
    let d = Rat.of_ints 85 100 in
    let w = Db.Weights.create ~name:"w" ~arity:1 ~zero:Rat.zero in
    Db.Weights.fill_unary w ~n (fun _ -> Rat.of_ints 1 n);
    let linv = Db.Weights.create ~name:"linv" ~arity:1 ~zero:Rat.zero in
    Db.Weights.fill_unary linv ~n (fun y ->
        let deg = Graphs.Graph.degree g y in
        if deg = 0 then Rat.zero else Rat.of_ints 1 deg);
    let expr =
      Logic.Expr.Add
        [
          Logic.Expr.Const (Rat.mul (Rat.sub Rat.one d) (Rat.of_ints 1 n));
          Logic.Expr.Mul
            [
              Logic.Expr.Const d;
              Logic.Expr.Sum
                ( [ "y" ],
                  Logic.Expr.Mul
                    [
                      Logic.Expr.Guard (Logic.Formula.Rel ("E", [ v "y"; v "x" ]));
                      Logic.Expr.Weight ("w", [ v "y" ]);
                      Logic.Expr.Weight ("linv", [ v "y" ]);
                    ] );
            ];
        ]
    in
    let rat_ops = Intf.ops_of_ring (module Rat.Ring) in
    let t =
      ok
        (Engine.Eval.prepare_checked rat_ops ~opt ~tfa_rounds:1 ~budget
           ~fallback ?recover inst
           (Db.Weights.bundle [ w; linv ]) expr)
    in
    note_degraded (Engine.Eval.degraded t);
    for _ = 1 to rounds do
      let next = Array.init n (fun x -> ok (Engine.Eval.query_checked t [ x ])) in
      for x = 0 to n - 1 do
        ok (Engine.Eval.update_checked t "w" [ x ] next.(x))
      done
    done;
    let ranks = Array.init n (fun x -> (Db.Weights.get w [ x ], x)) in
    Array.sort (fun (a, _) (b, _) -> Rat.compare b a) ranks;
    Printf.printf "top-5 after %d rounds:\n" rounds;
    Array.iteri
      (fun i (r, x) ->
        if i < 5 then Printf.printf "  vertex %4d  rank %.6f\n" x (Rat.to_float r))
      ranks
  in
  Cmd.v
    (Cmd.info "pagerank" ~doc:"PageRank rounds as a dynamic weighted query (Example 9).")
    Term.(
      ret
        (const (guarded run) $ metrics_term $ trace_arg $ graph_arg $ n_arg $ seed_arg $ rounds_arg
       $ budget_opt $ fallback_recover))

(* --- explain --- *)

let explain_cmd =
  let semiring_arg =
    Arg.(
      value
      & opt (enum [ ("nat", `Nat); ("int", `Int); ("bool", `Bool) ]) `Nat
      & info [ "semiring" ] ~docv:"S"
          ~doc:
            "Semiring to compile under: $(b,nat), $(b,int) (a ring), or $(b,bool) (a \
             finite semiring). Determines which constant-update permanent-gate \
             strategy the dynamic circuit would pick.")
  in
  let run kind n seed qname (budget, opt) (semiring, load) =
    let sname = match semiring with `Nat -> "nat" | `Int -> "int" | `Bool -> "bool" in
    let strategy (type a) (ops : a Semiring.Intf.ops) =
      Printf.printf "permanent-gate strategy: %s\n"
        (Circuits.Dyn.mode_name (Circuits.Dyn.pick_mode ops))
    in
    let pick_strategy () =
      match semiring with
      | `Nat -> strategy (Intf.ops_of_module (module Instances.Nat))
      | `Int -> strategy (Intf.ops_of_ring (module Instances.Int_ring))
      | `Bool -> strategy (Intf.ops_of_finite (module Instances.Bool))
    in
    match load with
    | Some path ->
        (* No compile happened, so no span tree: explain what the file holds
           and what runtime the chosen semiring would pick for it. *)
        let cc, tag = Circuits.Compact.load path in
        check_tag path tag sname;
        Printf.printf "loaded %s (tag %S)\n" path tag;
        Format.printf "circuit:  %a@." Circuits.Circuit.pp_stats
          (Circuits.Circuit.stats (Circuits.Compact.to_circuit cc));
        pick_strategy ()
    | None ->
    let _, inst = setup kind n seed in
    let phi = make_query qname in
    let fv = Logic.Formula.free_vars_unique phi in
    let expr = Logic.Expr.Sum (fv, Logic.Expr.Guard phi) in
    (* One compile under a recording; the span tree of the pipeline phases
       (normalize → gaifman → orientation → subsets → finish → optimize) is
       the plan. *)
    let explain (type a) (ops : a Semiring.Intf.ops) =
      let (ev : a Engine.Eval.t), records =
        Obs.Trace.with_recording (fun () ->
            Engine.Eval.prepare ops ~opt ~tfa_rounds:1 ~budget inst
              (Db.Weights.bundle []) expr)
      in
      print_string (Obs.Trace.render_forest (Obs.Trace.forest_of records));
      Format.printf "pipeline: %a@." Engine.Compile.pp_meta ev.Engine.Eval.meta;
      let raw = Circuits.Circuit.stats ev.Engine.Eval.plan.Engine.Compile.pl_raw
      and optimized = Engine.Eval.stats ev in
      Format.printf "circuit:  %a@." Circuits.Circuit.pp_stats optimized;
      let arrow f = Printf.sprintf "%d->%d" (f raw) (f optimized) in
      Format.printf "optimizer: gates %s edges %s depth %s (%.1f%% fewer gates)@."
        (arrow (fun s -> s.Circuits.Circuit.gates))
        (arrow (fun s -> s.Circuits.Circuit.edges))
        (arrow (fun s -> s.Circuits.Circuit.depth))
        (100. *. float_of_int (raw.Circuits.Circuit.gates - optimized.Circuits.Circuit.gates)
        /. float_of_int raw.Circuits.Circuit.gates);
      strategy ops;
      (* Cost of one cold evaluation of the same query: every gate is computed
         once, so gates_visited is the circuit size and there are no waves. *)
      let cell = ref None in
      ignore
        (Engine.Eval.evaluate ops ~opt ~tfa_rounds:1 ~budget ~cost:cell
           inst (Db.Weights.bundle []) expr);
      match !cell with
      | Some c -> Printf.printf "one-shot cost: %s\n" (Engine.Eval.Cost.summary c)
      | None -> ()
    in
    match semiring with
    | `Nat -> explain (Intf.ops_of_module (module Instances.Nat))
    | `Int -> explain (Intf.ops_of_ring (module Instances.Int_ring))
    | `Bool -> explain (Intf.ops_of_finite (module Instances.Bool))
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Compile a query and print its explain plan: the hierarchical span tree of \
          the compilation phases with wall-clock timings and coverage, the circuit \
          statistics, and the permanent-gate update strategy the chosen semiring \
          selects.")
    (let semiring_load = Term.(const (fun s l -> (s, l)) $ semiring_arg $ load_arg) in
     Term.(
       ret
         (const (guarded run) $ metrics_term $ trace_arg $ graph_arg $ n_arg $ seed_arg
        $ query_arg $ budget_opt $ semiring_load)))

(* --- compile --- *)

let compile_cmd =
  let save_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "save" ] ~docv:"FILE"
          ~doc:
            "Write the compiled+optimized circuit to $(docv) in the versioned SPQC1 \
             binary format; reload it with $(b,--load) on count, stats or explain.")
  in
  let semiring_arg =
    Arg.(
      value
      & opt (enum [ ("nat", `Nat); ("int", `Int); ("bool", `Bool) ]) `Nat
      & info [ "semiring" ] ~docv:"S"
          ~doc:
            "Semiring whose constants are baked into the saved circuit; recorded in \
             the file tag and checked on $(b,--load).")
  in
  let run kind n seed qname (budget, opt) (save, semiring) =
    let _, inst = setup kind n seed in
    let phi = make_query qname in
    let fv = Logic.Formula.free_vars_unique phi in
    let expr = Logic.Expr.Sum (fv, Logic.Expr.Guard phi) in
    let go (type a) (ops : a Semiring.Intf.ops) tag =
      let t0 = Obs.now_ns () in
      let c, m =
        Engine.Compile.compile ~tfa_rounds:1 ~budget ~opt ~zero:ops.Semiring.Intf.zero
          ~one:ops.Semiring.Intf.one inst expr
      in
      let cc = Circuits.Compact.of_circuit c in
      Circuits.Compact.save ~tag cc save;
      let bytes = (Unix.stat save).Unix.st_size in
      Format.printf "compiled %s in %.3fs@." qname (Obs.elapsed_ns t0 /. 1e9);
      Format.printf "pipeline: %a@." Engine.Compile.pp_meta m;
      Format.printf "circuit: %a@." Circuits.Circuit.pp_stats (Circuits.Circuit.stats c);
      Printf.printf "saved %s (tag %S, %d bytes)\n" save tag bytes
    in
    match semiring with
    | `Nat -> go (Intf.ops_of_module (module Instances.Nat)) "nat"
    | `Int -> go (Intf.ops_of_ring (module Instances.Int_ring)) "int"
    | `Bool -> go (Intf.ops_of_finite (module Instances.Bool)) "bool"
  in
  let save_semiring = Term.(const (fun s r -> (s, r)) $ save_arg $ semiring_arg) in
  Cmd.v
    (Cmd.info "compile"
       ~doc:
         "Compile and optimize a query once, then persist the compact circuit to disk \
          so later runs load it in O(size) instead of recompiling.")
    Term.(
      ret
        (const (guarded run) $ metrics_term $ trace_arg $ graph_arg $ n_arg $ seed_arg $ query_arg
       $ budget_opt $ save_semiring))

let () =
  (* Interactive runs want the post-mortem flight recorder on stderr; the
     SPARSEQ_FLIGHT env var (unset = silent, for the test suite) still wins. *)
  if Sys.getenv_opt "SPARSEQ_FLIGHT" = None then
    Obs.Trace.set_flight_dest Obs.Trace.Stderr;
  let info =
    Cmd.info "sparseq" ~version:"1.0.0"
      ~doc:"Aggregate queries on sparse databases (Torunczyk, PODS 2020)."
  in
  exit
    (Cmd.eval ~term_err:1
       (Cmd.group info
          [ stats_cmd; count_cmd; enum_cmd; explain_cmd; pagerank_cmd; compile_cmd ]))
