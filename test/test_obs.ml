(* Tests for the observability layer: histogram bucket geometry, registry
   scoping and reset semantics, snapshot JSON well-formedness (checked by
   an actual parser, not string poking), the enabled-flag gate, and the
   invariant that the compile gauges equal the real circuit parameters. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-9))

(* --- histogram geometry --- *)

let bucket_boundaries () =
  let open Obs.Histogram in
  check_int "0 -> bucket 0" 0 (bucket_of 0.);
  check_int "0.5 -> bucket 0" 0 (bucket_of 0.5);
  check_int "1 -> bucket 1" 1 (bucket_of 1.);
  check_int "1.5 -> bucket 1" 1 (bucket_of 1.5);
  check_int "2 -> bucket 2" 2 (bucket_of 2.);
  check_int "3 -> bucket 2" 2 (bucket_of 3.);
  check_int "4 -> bucket 3" 3 (bucket_of 4.);
  check_int "nan -> bucket 0" 0 (bucket_of Float.nan);
  check_int "huge clamps to last" (nbuckets - 1) (bucket_of 1e300);
  check_float "lower of 0" 0. (bucket_lower 0);
  check_float "upper of 0" 1. (bucket_upper 0);
  check_float "lower of 3" 4. (bucket_lower 3);
  check_float "upper of 3" 8. (bucket_upper 3);
  (* every value lands inside its bucket's [lower, upper) range *)
  List.iter
    (fun v ->
      let i = bucket_of v in
      check (Printf.sprintf "%g within bucket %d" v i) true
        (v >= bucket_lower i && v < bucket_upper i))
    [ 0.; 0.3; 1.; 1.9; 2.; 5.; 1023.; 1024.; 123456789. ]

let histogram_stats () =
  let h = Obs.Histogram.make () in
  List.iter (Obs.Histogram.observe h) [ 1.; 2.; 3.; 100. ];
  check_int "count" 4 (Obs.Histogram.count h);
  check_float "sum" 106. (Obs.Histogram.sum h);
  check_float "min" 1. (Obs.Histogram.min_value h);
  check_float "max" 100. (Obs.Histogram.max_value h);
  (* p50: rank 2 of {1,2,3,100} is the value 2, which lives in bucket
     [2,4) — the quantile reports that bucket's upper bound *)
  check_float "p50" 4. (Obs.Histogram.p50 h);
  (* p99: rank 4; bucket upper is 128, clamped to the exact max 100 *)
  check_float "p99 clamps to max" 100. (Obs.Histogram.p99 h);
  check_float "negative clamps to 0" 0.
    (let h2 = Obs.Histogram.make () in
     Obs.Histogram.observe h2 (-5.);
     Obs.Histogram.min_value h2);
  Obs.Histogram.reset h;
  check_int "reset clears" 0 (Obs.Histogram.count h);
  check_float "reset quantile" 0. (Obs.Histogram.p99 h)

(* --- quantile rank/boundary semantics --- *)

(* pins the inclusive boundary rule: a rank exactly equal to a bucket's
   cumulative count selects THAT bucket, never the one above *)
let quantile_boundaries () =
  (* all mass in a single bucket: every quantile is that bucket, clamped
     to the exact observed max *)
  let h = Obs.Histogram.make () in
  for _ = 1 to 7 do
    Obs.Histogram.observe h 5.
  done;
  check_float "single bucket p50" 5. (Obs.Histogram.p50 h);
  check_float "single bucket p99" 5. (Obs.Histogram.p99 h);
  check_float "single bucket q=1" 5. (Obs.Histogram.quantile h 1.0);
  (* rank exactly equal to the first bucket's cumulative count: 5 of 10
     observations live in bucket [0,1), so p50 (rank 5) must report that
     bucket's upper bound, not walk on to bucket [2,4) *)
  let h2 = Obs.Histogram.make () in
  for _ = 1 to 5 do
    Obs.Histogram.observe h2 0.5
  done;
  for _ = 1 to 5 do
    Obs.Histogram.observe h2 3.9
  done;
  check_float "rank = cumulative stays in bucket" 1. (Obs.Histogram.p50 h2);
  (* one more observation past the boundary moves the quantile up *)
  check_float "rank past boundary advances" 3.9 (Obs.Histogram.quantile h2 0.51);
  (* rank equal to the total count selects the last occupied bucket *)
  check_float "rank = count hits last bucket" 3.9 (Obs.Histogram.quantile h2 1.0)

(* --- registry scoping and reset --- *)

let registry_scoping () =
  let c1 = Obs.counter ~scope:"test_obs_a" "hits" in
  let c2 = Obs.counter ~scope:"test_obs_a" "hits" in
  let c3 = Obs.counter ~scope:"test_obs_b" "hits" in
  Obs.Counter.reset c1;
  Obs.Counter.reset c3;
  Obs.Counter.incr c1;
  Obs.Counter.incr c2;
  check_int "same (scope,name) is the same metric" 2 (Obs.Counter.get c1);
  check_int "other scope isolated" 0 (Obs.Counter.get c3);
  Obs.Counter.incr c3;
  Obs.reset_scope "test_obs_a";
  check_int "reset_scope zeroes its metrics" 0 (Obs.Counter.get c1);
  check_int "reset_scope leaves other scopes" 1 (Obs.Counter.get c3);
  check "kind mismatch rejected" true
    (match Obs.gauge ~scope:"test_obs_a" "hits" with
    | exception Invalid_argument _ -> true
    | _ -> false);
  check "find sees registered metric" true
    (Obs.find ~scope:"test_obs_a" "hits" <> None);
  check "scopes lists both" true
    (List.mem "test_obs_a" (Obs.scopes ()) && List.mem "test_obs_b" (Obs.scopes ()))

let enabled_gate () =
  let c = Obs.counter ~scope:"test_obs_a" "gated" in
  let h = Obs.histogram ~scope:"test_obs_a" "gated_h" in
  Obs.Counter.reset c;
  Obs.set_enabled false;
  Obs.Counter.incr c;
  Obs.Histogram.observe h 5.;
  let ran = ref false in
  let r = Obs.Timer.time h (fun () -> ran := true; 42) in
  Obs.set_enabled true;
  check_int "disabled counter frozen" 0 (Obs.Counter.get c);
  check_int "disabled histogram frozen" 0 (Obs.Histogram.count h);
  check "disabled timer still runs the thunk" true (!ran && r = 42)

(* --- snapshot JSON well-formedness (shared recursive-descent parser) --- *)

let parse_json s =
  match Json_parse.validate s with Ok () -> () | Error msg -> Alcotest.fail msg

let snapshot_well_formed () =
  (* populate a few metrics, including a name needing escaping *)
  Obs.Counter.incr (Obs.counter ~scope:"test_obs_a" "with \"quote\"");
  Obs.Histogram.observe (Obs.histogram ~scope:"test_obs_a" "lat") 123.;
  parse_json (Obs.snapshot ());
  (* special floats must not leak as bare nan/inf tokens: nan becomes
     null, infinities clamp to the finite float range *)
  let j =
    Obs.Json.to_string
      (Obs.Json.A
         [
           Obs.Json.F Float.nan;
           Obs.Json.F Float.infinity;
           Obs.Json.F Float.neg_infinity;
           Obs.Json.F 1.5;
         ])
  in
  parse_json j;
  check "nan serializes as null" true (String.sub j 1 4 = "null");
  check "no bare inf token leaks" true
    (not
       (String.exists (fun c -> c = 'i') j
       || String.exists (fun c -> c = 'I') j
       || String.exists (fun c -> c = 'n') (String.sub j 5 (String.length j - 5))))

(* --- compile gauges match the real circuit --- *)

let gauges_match_circuit () =
  let g = Graphs.Gen.grid 6 6 in
  let inst = Db.Instance.of_graph g in
  let expr =
    Logic.Expr.Sum
      ( [ "x"; "y" ],
        Logic.Expr.Guard (Logic.Formula.Rel ("E", [ Logic.Term.Var "x"; Logic.Term.Var "y" ]))
      )
  in
  let c, _ = Engine.Compile.compile ~tfa_rounds:1 ~zero:0 ~one:1 inst expr in
  let s = Circuits.Circuit.stats c in
  check_int "stats gates = node count" (Array.length c.Circuits.Circuit.nodes)
    s.Circuits.Circuit.gates;
  let gv name = int_of_float (Obs.Gauge.get (Obs.gauge ~scope:"compile" name)) in
  check_int "gauge gates" s.Circuits.Circuit.gates (gv "gates");
  check_int "gauge depth" s.Circuits.Circuit.depth (gv "depth");
  check_int "gauge max_fan_out" s.Circuits.Circuit.max_fan_out (gv "max_fan_out");
  check_int "gauge num_perm" s.Circuits.Circuit.num_perm (gv "num_perm");
  (* and the run counter moved *)
  check "compile runs counted" true
    (Obs.Counter.get (Obs.counter ~scope:"compile" "runs") > 0)

(* --- sliding-window aggregation (injected clock, deterministic) --- *)

(* Run [f] with a controllable clock and a short epoch, restoring the
   wall clock and the 1s default epoch afterwards — the window clock is
   process-global, so leaking a frozen clock would wedge every later
   test's histograms in one epoch. *)
let with_fake_clock f =
  let t = ref 1e9 in
  Obs.set_clock (Some (fun () -> !t));
  Obs.Window.reset ();
  Obs.Window.set_epoch_ms 100;
  Fun.protect
    ~finally:(fun () ->
      Obs.set_clock None;
      Obs.Window.set_epoch_ms 1000;
      Obs.Window.reset ())
    (fun () -> f t)

let window_slides () =
  with_fake_clock @@ fun t ->
  let h = Obs.histogram ~scope:"test_obs_win" "lat" in
  Obs.Histogram.reset h;
  Obs.Window.tick ();
  (* epoch 0: five fast observations *)
  List.iter (Obs.Histogram.observe h) [ 1.; 1.; 1.; 1.; 1. ];
  let w = Obs.Histogram.window_stats h in
  check_int "epoch 0 window count" 5 w.Obs.Histogram.wcount;
  check_float "epoch 0 window sum" 5. w.Obs.Histogram.wsum;
  (* one epoch later: one slow observation joins the window *)
  t := !t +. 100e6;
  Obs.Window.tick ();
  Obs.Histogram.observe h 1000.;
  let w = Obs.Histogram.window_stats h in
  check_int "epoch 1 window count" 6 w.Obs.Histogram.wcount;
  check_float "window p50 sees the fast mass" 2. w.Obs.Histogram.wp50;
  check_float "window p99 sees the slow tail" 1000. w.Obs.Histogram.wp99;
  check_float "window max" 1000. w.Obs.Histogram.wmax;
  (* cumulative stats never forget... *)
  check_int "cumulative count keeps everything" 6 (Obs.Histogram.count h);
  (* ...but after [slots] further epochs the early epochs leave the
     window: only observations from the last 8 epochs remain *)
  t := !t +. (float_of_int Obs.Window.slots *. 100e6);
  Obs.Window.tick ();
  Obs.Histogram.observe h 7.;
  let w = Obs.Histogram.window_stats h in
  check_int "old epochs expired" 1 w.Obs.Histogram.wcount;
  check_float "window p99 after expiry" 7. w.Obs.Histogram.wp99;
  check_float "window sum after expiry" 7. w.Obs.Histogram.wsum;
  (* a slot is recycled in place: 9 epochs after its tag it carries the
     new epoch's data only *)
  check_int "cumulative count still grows" 7 (Obs.Histogram.count h)

(* the windowed quantiles must equal a from-scratch recompute over the
   same observations (same bucket geometry, same inclusive-rank rule) *)
let window_matches_naive =
  QCheck.Test.make ~count:100 ~name:"windowed quantiles = naive recompute"
    QCheck.(list_of_size Gen.(1 -- 200) (float_bound_exclusive 1e6))
    (fun values ->
      with_fake_clock @@ fun _t ->
      let h = Obs.histogram ~scope:"test_obs_win" "qc" in
      Obs.Histogram.reset h;
      Obs.Window.tick ();
      List.iter (Obs.Histogram.observe h) values;
      let w = Obs.Histogram.window_stats h in
      let clean = List.map (fun v -> if v < 0. then 0. else v) values in
      let n = List.length clean in
      let buckets = Array.make Obs.Histogram.nbuckets 0 in
      List.iter
        (fun v ->
          let b = Obs.Histogram.bucket_of v in
          buckets.(b) <- buckets.(b) + 1)
        clean;
      let mx = List.fold_left Float.max 0. clean in
      let naive q =
        let rank = Float.to_int (Float.ceil (q *. float_of_int n)) in
        let rank = if rank < 1 then 1 else if rank > n then n else rank in
        let cum = ref buckets.(0) and i = ref 0 in
        while !cum < rank && !i < Obs.Histogram.nbuckets - 1 do
          incr i;
          cum := !cum + buckets.(!i)
        done;
        Float.min (Obs.Histogram.bucket_upper !i) mx
      in
      w.Obs.Histogram.wcount = n
      && w.Obs.Histogram.wp50 = naive 0.5
      && w.Obs.Histogram.wp99 = naive 0.99
      && Float.abs (w.Obs.Histogram.wsum -. List.fold_left ( +. ) 0. clean) < 1e-6)

(* --- OpenMetrics exposition --- *)

let om_validate s =
  match Om_check.validate s with Ok () -> () | Error msg -> Alcotest.fail msg

let openmetrics_well_formed () =
  (* a populated registry (counters, gauges, histograms with window
     companions, names needing sanitising) must pass the format checker *)
  Obs.Counter.incr (Obs.counter ~scope:"test_obs_om" "hits");
  Obs.Gauge.set (Obs.gauge ~scope:"test_obs_om" "depth") 3.5;
  let h = Obs.histogram ~scope:"test_obs_om" "lat.ns-weird name" in
  List.iter (Obs.Histogram.observe h) [ 1.; 3.; 1000.; 0.2 ];
  om_validate (Obs.Openmetrics.render ());
  (* the checker is not a rubber stamp: hand-broken expositions fail *)
  let rejects what text =
    check (Printf.sprintf "checker rejects %s" what) true
      (match Om_check.validate text with Error _ -> true | Ok () -> false)
  in
  rejects "missing EOF" "# TYPE a counter\n# HELP a x\na_total 1\n";
  rejects "EOF not last" "# EOF\n# TYPE a counter\n# HELP a x\na_total 1\n";
  rejects "unsorted families" "# TYPE b counter\n# HELP b x\nb_total 1\n# TYPE a counter\n# HELP a x\na_total 1\n# EOF\n";
  rejects "counter without _total" "# TYPE a counter\n# HELP a x\na 1\n# EOF\n";
  rejects "unknown kind" "# TYPE a summary\n# HELP a x\na 1\n# EOF\n";
  rejects "bad value" "# TYPE a gauge\n# HELP a x\na wat\n# EOF\n";
  rejects "non-cumulative buckets"
    "# TYPE a histogram\n# HELP a x\na_bucket{le=\"1\"} 5\na_bucket{le=\"2\"} 3\na_bucket{le=\"+Inf\"} 5\na_sum 9\na_count 5\n# EOF\n";
  rejects "+Inf bucket <> count"
    "# TYPE a histogram\n# HELP a x\na_bucket{le=\"+Inf\"} 4\na_sum 9\na_count 5\n# EOF\n";
  rejects "histogram without _sum"
    "# TYPE a histogram\n# HELP a x\na_bucket{le=\"+Inf\"} 5\na_count 5\n# EOF\n";
  rejects "sample before TYPE" "a_total 1\n# EOF\n"

let openmetrics_deterministic () =
  (* with a frozen clock and an untouched registry, two renders are
     byte-identical — the property CI diffing relies on *)
  with_fake_clock @@ fun _t ->
  Obs.Counter.incr (Obs.counter ~scope:"test_obs_om" "det");
  let a = Obs.Openmetrics.render () in
  let b = Obs.Openmetrics.render () in
  check "render is deterministic" true (String.equal a b);
  let ha = Obs.snapshot_human () in
  let hb = Obs.snapshot_human () in
  check "snapshot_human is deterministic" true (String.equal ha hb);
  om_validate a

let openmetrics_writer () =
  let path = Filename.temp_file "sparseq_test_metrics" ".prom" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let w = Obs.Openmetrics.Writer.create ~path ~interval_ms:0 in
      Obs.Openmetrics.Writer.write_now w;
      Obs.Openmetrics.Writer.tick w;
      (* interval 0: every tick rewrites *)
      check_int "tick with zero interval writes" 2 (Obs.Openmetrics.Writer.writes w);
      check "writer path" true (String.equal path (Obs.Openmetrics.Writer.path w));
      let ic = open_in_bin path in
      let text = really_input_string ic (in_channel_length ic) in
      close_in ic;
      om_validate text;
      (* the atomic-rename protocol leaves no temp file behind *)
      check "no stale temp file" false (Sys.file_exists (path ^ ".tmp")))

(* --- runtime (GC) telemetry --- *)

let runtime_sampler () =
  Obs.Runtime.reset ();
  Obs.Runtime.sample ();
  let gv name = Obs.Gauge.get (Obs.gauge ~scope:"runtime" name) in
  check "heap gauge populated" true (gv "heap_words" > 0.);
  check "peak >= current heap" true (gv "top_heap_words" >= gv "heap_words");
  let c = Obs.counter ~scope:"runtime" "minor_words" in
  let before = Obs.Counter.get c in
  (* allocate enough to show up in the next delta *)
  let junk = Array.init 100_000 (fun i -> [ i ]) in
  ignore (Sys.opaque_identity junk);
  Obs.Runtime.sample ();
  check "allocation delta accounted" true (Obs.Counter.get c - before > 100_000);
  (* deltas, not absolutes: a third immediate sample adds almost nothing *)
  let mid = Obs.Counter.get c in
  Obs.Runtime.sample ();
  check "delta accounting (not cumulative re-add)" true (Obs.Counter.get c - mid < mid)

(* --- exactness hammers --- *)

(* one counter bumped 100k times, its name re-registered and fresh
   metrics registered along the way: no increment is lost, a
   re-registered name resolves to the same metric, and every fresh
   registration stays findable with its count *)
let counter_hammer () =
  let nw = 4 and per = 25_000 in
  let shared = Obs.counter ~scope:"test_obs_par" "hits" in
  Obs.Counter.reset shared;
  for i = 1 to per do
    for d = 0 to nw - 1 do
      Obs.Counter.incr shared;
      if i mod 5_000 = 0 then
        check "re-registered name resolves to the same metric" true
          (Obs.counter ~scope:"test_obs_par" "hits" == shared);
      if i mod 1_000 = 0 then
        Obs.Histogram.observe
          (Obs.histogram ~scope:(Printf.sprintf "test_obs_par_d%d" d)
             (Printf.sprintf "h%d" (i / 1_000)))
          (float_of_int i)
    done
  done;
  check_int "no lost increments" (nw * per) (Obs.Counter.get shared);
  (* registry integrity: every registered metric is findable with its
     full count, and a snapshot taken now still parses *)
  for d = 0 to nw - 1 do
    let scope = Printf.sprintf "test_obs_par_d%d" d in
    for k = 1 to per / 1_000 do
      let name = Printf.sprintf "h%d" k in
      check (Printf.sprintf "%s/%s registered" scope name) true
        (Obs.find ~scope name <> None);
      check_int
        (Printf.sprintf "%s/%s observation kept" scope name)
        1
        (Obs.Histogram.count (Obs.histogram ~scope name))
    done
  done;
  parse_json (Obs.snapshot ())

(* 100k observations into one histogram: the count is exact, the float
   sum exact (integral values, so no rounding slack), the buckets total
   the count, the max is the largest value seen, and the window view
   over the same cells agrees *)
let histogram_hammer () =
  let n = 100_000 in
  let h = Obs.histogram ~scope:"test_obs_par" "lat_hammer" in
  Obs.Histogram.reset h;
  for i = 0 to n - 1 do
    Obs.Histogram.observe h (float_of_int (i mod 100))
  done;
  check_int "histogram count exact" n (Obs.Histogram.count h);
  (* Σ (i mod 100) over 100k iterations = 1000 full cycles of 0+…+99 *)
  check_float "histogram sum exact" (float_of_int (1000 * 4950)) (Obs.Histogram.sum h);
  let bucket_total = ref 0 in
  for i = 0 to Obs.Histogram.nbuckets - 1 do
    bucket_total := !bucket_total + Obs.Histogram.bucket_count h i
  done;
  check_int "bucket totals = count" n !bucket_total;
  check_float "max survived the hammer" 99. (Obs.Histogram.max_value h);
  let w = Obs.Histogram.window_stats h in
  check_int "window count consistent" n w.Obs.Histogram.wcount

let suite =
  [
    Alcotest.test_case "histogram bucket boundaries" `Quick bucket_boundaries;
    Alcotest.test_case "histogram stats and quantiles" `Quick histogram_stats;
    Alcotest.test_case "quantile rank boundary semantics" `Quick quantile_boundaries;
    Alcotest.test_case "counter and registry hammer" `Quick counter_hammer;
    Alcotest.test_case "histogram hammer" `Quick histogram_hammer;
    Alcotest.test_case "sliding window slides and expires" `Quick window_slides;
    QCheck_alcotest.to_alcotest window_matches_naive;
    Alcotest.test_case "openmetrics exposition is well-formed" `Quick openmetrics_well_formed;
    Alcotest.test_case "openmetrics render is deterministic" `Quick openmetrics_deterministic;
    Alcotest.test_case "openmetrics periodic writer" `Quick openmetrics_writer;
    Alcotest.test_case "runtime GC sampler" `Quick runtime_sampler;
    Alcotest.test_case "registry scoping and reset" `Quick registry_scoping;
    Alcotest.test_case "enabled flag gates writes" `Quick enabled_gate;
    Alcotest.test_case "snapshot JSON is parseable" `Quick snapshot_well_formed;
    Alcotest.test_case "compile gauges match circuit stats" `Quick gauges_match_circuit;
  ]
