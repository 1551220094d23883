(* Entry point of the repository benchmark.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1
     bench.exe --smoke

   A run builds its inputs from the seed, prepares the workload's query,
   drives one closed-loop client for S seconds, checks the engine's
   answers against Engine.Reference (and the journal / independent
   counts), and prints one JSON object as the last line of stdout:
   {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
   metrics are the end-to-end set; with --trace 1 the run is repeated
   with Obs.Trace recording and outside-in stage probes, and the metrics
   are the per-layer set. A JSON report (facts, sample counts, the
   workload's own layer table) precedes the last line and is written
   under --out-dir. --smoke runs all three workloads at tiny sizes and
   checks the output contract. *)

type workload = {
  name : string;
  why : string;
  run :
    smoke:bool -> seed:int -> seconds:float -> trace:bool -> out_dir:string -> Common.outcome;
}

let workloads =
  [
    { name = Serve.name; why = Serve.why; run = Serve.run };
    { name = Churn.name; why = Churn.why; run = Churn.run };
    { name = Enum_paths.name; why = Enum_paths.why; run = Enum_paths.run };
  ]

(* The metric contract: every workload reports every end-to-end metric
   untraced and every per-layer metric traced, with these units. *)
let end_to_end =
  [
    ("setup_s", "s");
    ("setup_heap_mb", "MB");
    ("update_p50_us", "us");
    ("update_tput", "1/s");
    ("read_p50_us", "us");
    ("heavy_p50_ms", "ms");
  ]

let per_layer =
  [
    ("compile.raw_s", "s");
    ("compile.raw_gates", "count");
    ("compile.scaling_exp", "ratio");
    ("compile.gates_copied_per_op", "count");
    ("opt.run_s", "s");
    ("opt.gates", "count");
    ("eval.setup_residual_pct", "%");
    ("eval.fallbacks", "count");
    ("dyn.gates_per_update", "count");
    ("dyn.gates_per_batch", "count");
    ("dyn.splice_carried_per_op", "count");
    ("dyn.splice_rebuilt_per_op", "count");
    ("perm.sets_per_update", "count");
    ("journal.bytes_per_write", "B");
    ("enum.ticks_per_answer", "count");
    ("obs.overhead_pct", "%");
    ("trace.overhead_pct", "%");
    ("runtime.minor_words_per_update", "count");
    ("runtime.minor_words_per_answer", "count");
    ("runtime.major_collections", "count");
  ]

(* The bound the smoke test holds the prepare-stage residual to. *)
let residual_bound_pct = 50.

let nproc () = Domain.recommended_domain_count ()

let run_facts ~seed ~seconds ~trace (w : workload) =
  let c = Lazy.force Clock.info in
  [
    ("workload", Obs.Json.S w.name);
    ("why", Obs.Json.S w.why);
    ("seed", Obs.Json.I seed);
    ("seconds", Obs.Json.F seconds);
    ("trace", Obs.Json.B trace);
    ("loop", Obs.Json.S "closed, one client, one domain");
    ("nproc", Obs.Json.I (nproc ()));
    ("ocaml", Obs.Json.S Sys.ocaml_version);
    ( "clock",
      Obs.Json.O
        [
          ("source", Obs.Json.S "clock_gettime(CLOCK_MONOTONIC)");
          ("resolution_ns", Obs.Json.F c.Clock.resolution_ns);
          ("getres_ns", Obs.Json.F c.Clock.getres_ns);
          ("read_cost_ns", Obs.Json.F c.Clock.read_cost_ns);
        ] );
  ]

(* The calibration kernel's times over the whole run (see Calib). *)
let calib_facts () =
  let d = Array.sub !Calib.dur 0 !Calib.n in
  Array.sort Float.compare d;
  let q x = Obs.Json.F (Stats.quantile_sorted d x) in
  [
    ( "calibration",
      Obs.Json.O
        [
          ("nominal_ns", Obs.Json.F Calib.nominal_ns);
          ("samples", Obs.Json.I !Calib.n);
          ("kernel_p10_ns", q 0.1);
          ("kernel_p50_ns", q 0.5);
          ("kernel_p90_ns", q 0.9);
        ] );
  ]

(* Missing or mistyped metrics, and values that are not finite. *)
let contract_errors spec (ms : Common.metric list) =
  List.filter_map
    (fun (name, unit_) ->
      match List.find_opt (fun x -> x.Common.name = name) ms with
      | None -> Some ("missing metric " ^ name)
      | Some x when x.Common.unit_ <> unit_ ->
          Some (Printf.sprintf "metric %s has unit %s, not %s" name x.Common.unit_ unit_)
      | Some x when not (Float.is_finite x.Common.value) ->
          Some (Printf.sprintf "metric %s is not finite" name)
      | Some _ -> None)
    spec

let last_line ~correct ~attempted ~failed (ms : Common.metric list) =
  let metric x =
    Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" x.Common.name x.Common.value
      x.Common.unit_
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", " (List.map metric ms))

let error_rate (o : Common.outcome) =
  float_of_int o.Common.failed /. float_of_int (max 1 o.Common.attempted)

let reported ~trace (o : Common.outcome) =
  if trace then (per_layer, o.Common.layers) else (end_to_end, o.Common.e2e)

let residual (o : Common.outcome) =
  List.find_opt (fun x -> x.Common.name = "eval.setup_residual_pct") o.Common.layers

let report ~seed ~seconds ~trace (w : workload) (o : Common.outcome) errors =
  Obs.Json.O
    (run_facts ~seed ~seconds ~trace w
    @ calib_facts ()
    @ [
        ("attempted", Obs.Json.I o.Common.attempted);
        ("failed", Obs.Json.I o.Common.failed);
        ("error_rate", Obs.Json.F (error_rate o));
        ("failures", Obs.Json.A (List.map (fun e -> Obs.Json.S e) o.Common.notes));
        ("contract_errors", Obs.Json.A (List.map (fun e -> Obs.Json.S e) errors));
        ("end_to_end", Common.metrics_json o.Common.e2e);
        ("per_layer", Common.metrics_json o.Common.layers);
      ]
    @ (match residual o with
      | Some r ->
          [
            ("residual_bound_pct", Obs.Json.F residual_bound_pct);
            ("residual_within_bound", Obs.Json.B (Float.abs r.Common.value <= residual_bound_pct));
          ]
      | None -> [])
    @ o.Common.detail)

(* Tiny-size pass over all three workloads, untraced and traced: every
   named metric present with its unit, error_rate 0, and the traced
   prepare stages summing to the whole prepare within the residual bound. *)
let smoke ~out_dir =
  let problems = ref [] in
  List.iter
    (fun w ->
      List.iter
        (fun trace ->
          let o = w.run ~smoke:true ~seed:7 ~seconds:0.3 ~trace ~out_dir in
          let tag s = Printf.sprintf "%s%s: %s" w.name (if trace then " (traced)" else "") s in
          let problem s = problems := tag s :: !problems in
          let spec, ms = reported ~trace o in
          List.iter problem (contract_errors spec ms);
          if o.Common.failed > 0 then
            problem
              (Printf.sprintf "error_rate %g (%s)" (error_rate o) (String.concat "; " o.Common.notes));
          match residual o with
          | Some r when Float.abs r.Common.value > residual_bound_pct ->
              problem
                (Printf.sprintf "setup residual %.1f%% outside +-%.0f%%" r.Common.value
                   residual_bound_pct)
          | _ -> ())
        [ false; true ])
    workloads;
  match !problems with
  | [] -> print_endline "perfbench smoke: ok"
  | ps ->
      List.iter prerr_endline (List.rev ps);
      exit 1

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 30. and trace = ref 0 in
  let out_dir = ref (Filename.concat "perfbench" "out") and smoke_mode = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME  serve_weights | churn_ring | enum_paths");
      ("--seed", Arg.Set_int seed, "N  input seed");
      ("--seconds", Arg.Set_float seconds, "S  measured seconds");
      ("--trace", Arg.Set_int trace, "0|1  end-to-end (0) or traced per-layer (1) run");
      ("--out-dir", Arg.Set_string out_dir, "DIR  reports and traces (default perfbench/out)");
      ("--smoke", Arg.Set smoke_mode, "  tiny sizes, all workloads, contract checks");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  if !smoke_mode then smoke ~out_dir:!out_dir
  else
    match List.find_opt (fun w -> w.name = !workload) workloads with
    | None ->
        Printf.eprintf "unknown workload %S (have: %s)\n" !workload
          (String.concat ", " (List.map (fun w -> w.name) workloads));
        exit 2
    | Some w ->
        let seed = !seed and seconds = !seconds and trace = !trace = 1 in
        let o = w.run ~smoke:false ~seed ~seconds ~trace ~out_dir:!out_dir in
        let spec, ms = reported ~trace o in
        let errors = contract_errors spec ms in
        List.iter (fun e -> prerr_endline ("contract: " ^ e)) errors;
        let text = Obs.Json.to_string (report ~seed ~seconds ~trace w o errors) in
        Common.write_file
          (Filename.concat !out_dir
             (Printf.sprintf "%s-seed%d-trace%d.json" w.name seed (if trace then 1 else 0)))
          text;
        print_endline text;
        print_endline
          (last_line
             ~correct:(o.Common.failed = 0 && errors = [])
             ~attempted:o.Common.attempted ~failed:o.Common.failed ms)
