(* serve_weights — the serving path.

   Weighted degree f(x) = Σ_y E(x,y)·w(y) over the naturals (General
   mode: segment-tree permanents, O(log n) updates) on a seeded random
   graph of maximum degree 3, with the update journal on. One client
   interleaves single-weight updates on uniform keys, point queries, and
   update_many transactions over a small hot key pool, drawn afresh for
   each transaction. *)

open Semiring

let name = "serve_weights"

let why =
  "Eval, Dyn, Perm.Segtree, Journal and Obs do the work; reads run beside writes and \
   batches beside single writes"

let nat_ops = Intf.with_int_repr (Intf.ops_of_module (module Instances.Nat))
let var x = Logic.Term.Var x

let wdeg_expr =
  Logic.Expr.Sum
    ( [ "y" ],
      Logic.Expr.Mul
        [
          Logic.Expr.Guard (Logic.Formula.Rel ("E", [ var "x"; var "y" ]));
          Logic.Expr.Weight ("w", [ var "y" ]);
        ] )

(* the closed form Eval.prepare compiles: f(x) times the query weight *)
let closed_expr =
  Logic.Expr.Sum
    ( [ "x" ],
      Logic.Expr.Mul [ wdeg_expr; Logic.Expr.Weight (Engine.Eval.query_weight 0, [ var "x" ]) ]
    )

(* The graph is fixed, like the grids of the other workloads; the seed
   draws the weights and the traffic. Circuit size (and with it every
   cost) moves by several percent between random graphs of the same n,
   which would otherwise read as noise. *)
let graph_seed = 1

type params = {
  n : int;
  hot : int;  (** hot key pool of a transaction, drawn afresh for each *)
  batch : int;  (** writes per update_many transaction *)
  group : int;  (** single updates / queries per timed group *)
  singles : int;  (** single updates per cycle (and as many queries) *)
  check_every : int;  (** cycles between reference-checked queries *)
  setups : int;
  rotate_writes : int;  (** journaled writes between checkpoints *)
  recover_batches : int;
  recover_singles : int;
  trace_cycles : int;
}

let full =
  {
    n = 8192;
    hot = 96;
    batch = 1024;
    group = 16;
    singles = 64;
    check_every = 16;
    setups = 3;
    rotate_writes = 1 lsl 15;
    recover_batches = 32;
    recover_singles = 8192;
    trace_cycles = 150;
  }

let tiny =
  {
    n = 256;
    hot = 16;
    batch = 64;
    group = 8;
    singles = 16;
    check_every = 2;
    setups = 3;
    rotate_writes = 4096;
    recover_batches = 4;
    recover_singles = 64;
    trace_cycles = 10;
  }

let facts p =
  [
    ("graph", Obs.Json.S "Graphs.Gen.random_bounded_degree ~seed:graph_seed ~n ~max_deg:3");
    ("graph_seed", Obs.Json.I graph_seed);
    ("n", Obs.Json.I p.n);
    ("semiring", Obs.Json.S "nat (General mode, segment-tree permanents)");
    ("query", Obs.Json.S "f(x) = sum_y E(x,y) * w(y)");
    ("weights", Obs.Json.S "uniform in [0,1000)");
    ("cycle", Obs.Json.S "single updates, point queries, one update_many transaction");
    ("single_updates_per_cycle", Obs.Json.I p.singles);
    ("point_queries_per_cycle", Obs.Json.I p.singles);
    ("group", Obs.Json.I p.group);
    ("txn_writes", Obs.Json.I p.batch);
    ("txn_hot_keys", Obs.Json.I p.hot);
    ("journal", Obs.Json.S "on; a checkpoint truncates it every rotate_writes writes");
    ("rotate_writes", Obs.Json.I p.rotate_writes);
    ("heavy_op", Obs.Json.S "one update_many transaction");
    ("read_op", Obs.Json.S "one point query Eval.query [x]");
  ]

(* Prepare stages, each timed alone on the same inputs, against a whole
   prepare; the last element is the unexplained share of the prepare. *)
let stage_probes p inst weights =
  let equal = nat_ops.Intf.equal in
  let raw_compile inst =
    fst (Engine.Compile.compile ~zero:0 ~one:1 ~equal ~opt:Opt.none inst closed_expr)
  in
  let valuation (w, tuple) =
    if w = "w" then Db.Weights.get (Db.Weights.find weights w) tuple else 0
  in
  let gates = ref (0., 0.) in
  let full_s, times =
    Common.stage_split ~reps:p.setups
      ~full:(fun () -> Engine.Eval.prepare nat_ops inst weights wdeg_expr)
      ~stages:(fun () ->
        let raw_s, raw = Common.timed (fun () -> raw_compile inst) in
        let opt_s, o = Common.timed (fun () -> Opt.run ~zero:0 ~one:1 ~equal raw) in
        let c = o.Opt.circuit in
        let create_s, _ = Common.timed (fun () -> Circuits.Dyn.create nat_ops c valuation) in
        let freeze_s, _ = Common.timed (fun () -> Circuits.Compact.of_circuit c) in
        let count c = float_of_int (Circuits.Circuit.stats c).Circuits.Circuit.gates in
        gates := (count raw, count c);
        [ raw_s; opt_s; create_s; freeze_s ])
  in
  let raw_s, opt_s, create_s, freeze_s =
    match times with [ a; b; c; d ] -> (a, b, c, d) | _ -> assert false
  in
  let quarter =
    Db.Instance.of_graph
      (Graphs.Gen.random_bounded_degree ~seed:graph_seed ~n:(p.n / 4) ~max_deg:3)
  in
  let raw_quarter_s = Common.median_time ~reps:p.setups (fun () -> ignore (raw_compile quarter)) in
  ( [
      Common.m "compile.raw_s" "s" raw_s;
      Common.m "compile.raw_gates" "count" (fst !gates);
      Common.m "compile.scaling_exp" "ratio"
        (Common.slope ~n_small:(p.n / 4) ~t_small:raw_quarter_s ~n_big:p.n ~t_big:raw_s);
      Common.m "opt.run_s" "s" opt_s;
      Common.m "opt.gates" "count" (snd !gates);
      Common.m "eval.setup_residual_pct" "%"
        (Common.pct (full_s -. raw_s -. opt_s -. create_s) full_s);
    ],
    [
      Common.m "dyn.create_s" "s" create_s;
      Common.m "compact.freeze_share_pct" "%" (Common.pct freeze_s create_s);
      Common.m "eval.prepare_s" "s" full_s;
    ] )

let run ~smoke ~seed ~seconds ~trace ~out_dir : Common.outcome =
  let p = if smoke then tiny else full in
  let rng = Random.State.make [| seed; 1 |] in
  let rnd k = Random.State.int rng k in
  let inst =
    Db.Instance.of_graph (Graphs.Gen.random_bounded_degree ~seed:graph_seed ~n:p.n ~max_deg:3)
  in
  let n = Db.Instance.n inst in
  let cur = Array.init n (fun _ -> rnd 1000) in
  let bundle_of vals =
    let w = Db.Weights.create ~name:"w" ~arity:1 ~zero:0 in
    Db.Weights.fill_unary w ~n (fun i -> vals.(i));
    (w, Db.Weights.bundle [ w ])
  in
  let _, weights0 = bundle_of cur in
  (* the reference evaluator's view of the weights, written through *)
  let mirror_w, mirror = bundle_of cur in
  let write x v =
    cur.(x) <- v;
    Db.Weights.set mirror_w [ x ] v
  in
  (* stage probes run first, on the same near-empty heap as the prepares *)
  let stages = if trace then Some (stage_probes p inst weights0) else None in
  let ev, spare, setup =
    Common.measure_setup ~spare:true ~reps:p.setups (fun () ->
        Engine.Eval.prepare nat_ops inst weights0 wdeg_expr)
  in
  let tally = Common.tally () in
  let journaled = ref 0 and checkpoints = ref 0 in
  ignore (Engine.Eval.enable_journal ev);
  let upd = Stats.create () and qry = Stats.create () and txn = Stats.create () in
  let keys = Array.make p.group [] and vals = Array.make p.group 0 in
  let pool = Array.init p.hot (fun _ -> rnd n) in
  let sink = ref 0 and cycles = ref 0 in
  let draw () =
    for i = 0 to p.group - 1 do
      keys.(i) <- [ rnd n ];
      vals.(i) <- rnd 1000
    done
  in
  let singles () =
    for _ = 1 to p.singles / p.group do
      draw ();
      (match
         Common.timed_group tally p.group (fun () ->
             Common.span "update group" (fun () ->
                 for i = 0 to p.group - 1 do
                   Engine.Eval.update ev "w" keys.(i) vals.(i)
                 done))
       with
      | Some dt -> Stats.add upd (dt /. float_of_int p.group)
      | None -> ());
      for i = 0 to p.group - 1 do
        write (List.hd keys.(i)) vals.(i)
      done;
      journaled := !journaled + p.group
    done
  in
  let queries () =
    for _ = 1 to p.singles / p.group do
      draw ();
      match
        Common.timed_group tally p.group (fun () ->
            Common.span "query group" (fun () ->
                for i = 0 to p.group - 1 do
                  sink := !sink + Engine.Eval.query ev keys.(i)
                done))
      with
      | Some dt -> Stats.add qry (dt /. float_of_int p.group)
      | None -> ()
    done
  in
  let transaction () =
    Array.iteri (fun i _ -> pool.(i) <- rnd n) pool;
    let ws = List.init p.batch (fun _ -> ("w", [ pool.(rnd p.hot) ], rnd 1000)) in
    (match
       Common.timed_group tally 1 (fun () ->
           Common.span "update_many" (fun () -> Engine.Eval.update_many ev ws))
     with
    | Some dt -> Stats.add txn dt
    | None -> ());
    List.iter (fun (_, k, v) -> write (List.hd k) v) ws;
    journaled := !journaled + p.batch
  in
  let check_query () =
    let x = rnd n in
    Common.check tally "point query = Engine.Reference"
      (match Engine.Eval.query ev [ x ] with
      | got -> got = Engine.Reference.eval nat_ops inst mirror ~env:[ ("x", x) ] wdeg_expr
      | exception _ -> false)
  in
  (* a checkpoint: a serving system truncates its log once the state it
     covers is durable elsewhere; this keeps the journal's memory bounded *)
  let checkpoint () =
    Circuits.Dyn.set_journal ev.Engine.Eval.dyn None;
    ignore (Engine.Eval.enable_journal ev);
    journaled := 0;
    incr checkpoints
  in
  let cycle () =
    incr cycles;
    singles ();
    queries ();
    transaction ();
    if !cycles mod p.check_every = 0 then check_query ();
    if !journaled >= p.rotate_writes then checkpoint ()
  in
  let cut () =
    Stats.cut upd;
    Stats.cut qry;
    Stats.cut txn
  in
  let reset () =
    Stats.clear upd;
    Stats.clear qry;
    Stats.clear txn
  in
  (* times machine-speed scaled (see Calib); [~raw:true] gives the clock's *)
  let e2e ?(raw = false) () =
    let sc x = if raw then x else Stats.scaled x in
    let upd = sc upd and qry = sc qry and txn = sc txn in
    [
      Common.m "setup_s" "s" setup.Common.setup_s;
      Common.m "setup_heap_mb" "MB" setup.Common.heap_mb;
      Common.m "update_p50_us" "us" (Stats.sliced_quantile upd 0.5 /. 1e3);
      Common.m "update_tput" "1/s" (1e9 /. Stats.sliced_mean upd);
      Common.m "read_p50_us" "us" (Stats.sliced_quantile qry 0.5 /. 1e3);
      Common.m "heavy_p50_ms" "ms" (Stats.sliced_quantile txn 0.5 /. 1e6);
    ]
  in
  let samples () =
    [
      ("update_ns_per_op", Stats.summary upd);
      ("query_ns_per_op", Stats.summary qry);
      ("txn_ns", Stats.summary txn);
      ( "batch_write_tput",
        Obs.Json.F (float_of_int (Stats.count txn * p.batch) *. 1e9 /. Stats.sum txn) );
    ]
  in
  (* recovery, before the traffic: a fixed journaled stream on the live
     structure, then save -> load -> replay onto a second fresh prepare
     (the spare set-up repetition), compared exactly on every key *)
  let j = Engine.Eval.enable_journal ev in
  for _ = 1 to p.recover_batches do
    transaction ()
  done;
  for _ = 1 to p.recover_singles / p.group do
    draw ();
    for i = 0 to p.group - 1 do
      Engine.Eval.update ev "w" keys.(i) vals.(i);
      write (List.hd keys.(i)) vals.(i)
    done
  done;
  let recover_writes = (p.recover_batches * p.batch) + p.recover_singles in
  let path = Filename.concat out_dir (Printf.sprintf "%s-%d.journal" name seed) in
  Common.mkdir_p out_dir;
  Circuits.Journal.save j path;
  let fresh =
    match spare with
    | Some e -> e
    | None -> Engine.Eval.prepare nat_ops inst weights0 wdeg_expr
  in
  let t0 = Clock.now_ns () in
  let loaded = Circuits.Journal.load path in
  let load_s = Clock.since_ns t0 /. 1e9 in
  let t1 = Clock.now_ns () in
  Engine.Eval.replay fresh loaded;
  let replay_s = Clock.since_ns t1 /. 1e9 in
  Sys.remove path;
  let same = ref true in
  for x = 0 to n - 1 do
    if Engine.Eval.query fresh [ x ] <> Engine.Eval.query ev [ x ] then same := false
  done;
  Common.check tally "journal save -> load -> replay reproduces every live value" !same;
  let recovery =
    [
      ("recover_s", Obs.Json.F (load_s +. replay_s));
      ("recover_journal_records", Obs.Json.I (Circuits.Journal.length j));
      ("recover_journal_writes", Obs.Json.I recover_writes);
      ("recover_journal_bytes", Obs.Json.I (Circuits.Journal.bytes j));
    ]
  in
  checkpoint ();
  (* warm caches and lazily built state, then measure *)
  ignore (Common.run_for ~seconds:(Float.min 1. (seconds /. 10.)) cycle);
  reset ();
  let measured =
    Common.run_for ~on_slice:cut ~seconds:(if trace then seconds /. 2. else seconds) cycle
  in
  let e2e_untraced = e2e () and e2e_raw = e2e ~raw:true () and samples_untraced = samples () in
  check_query ();
  (* the traced window: the same loop with Obs.Trace recording *)
  let traced =
    if not trace then None
    else begin
      reset ();
      let majors0 = Common.major_collections () in
      let traced_cycles, records =
        Common.traced (fun () ->
            Common.run_for ~on_slice:cut ~max_cycles:p.trace_cycles ~seconds:(seconds /. 2.)
              cycle)
      in
      let majors = Common.major_collections () - majors0 in
      Common.write_file
        (Filename.concat out_dir (name ^ ".trace.json"))
        (Obs.Json.to_string (Obs.Trace.to_chrome records));
      Some (traced_cycles, records, majors, e2e (), samples ())
    end
  in
  (* outside-in probes of the update path (traced run only) *)
  let layers, layer_detail =
    match (traced, stages) with
    | Some (traced_cycles, records, majors, e2e_traced, samples_traced), Some (st, st_extra) ->
        let get name' l = (List.find (fun x -> x.Common.name = name') l).Common.value in
        let trace_overhead =
          Common.pct
            (get "update_p50_us" e2e_traced -. get "update_p50_us" e2e_untraced)
            (get "update_p50_us" e2e_untraced)
        in
        let k = 4096 in
        let probe_keys = Array.init k (fun _ -> [ rnd n ]) in
        let probe_vals = Array.init k (fun _ -> rnd 1000) in
        let dyn = ev.Engine.Eval.dyn in
        let next = ref 0 in
        (* a fresh value for the next probe key, written through *)
        let step () =
          let i = !next mod k in
          incr next;
          probe_vals.(i) <- (probe_vals.(i) + 1 + (!next / k)) mod 1000;
          write (List.hd probe_keys.(i)) probe_vals.(i);
          i
        in
        let set_input_p50, eval_overhead =
          Common.paired_p50 ~groups:(k / p.group) ~group:p.group
            (fun _ ->
              let i = step () in
              let key = ("w", probe_keys.(i)) in
              if Circuits.Dyn.has_input dyn key then Circuits.Dyn.set_input dyn key probe_vals.(i))
            (fun _ ->
              let i = step () in
              Engine.Eval.update ev "w" probe_keys.(i) probe_vals.(i))
        in
        let qw = Engine.Eval.query_weight 0 in
        let with_temp_p50, query_overhead =
          Common.paired_p50 ~groups:(k / p.group) ~group:p.group
            (fun i ->
              sink :=
                !sink
                + Circuits.Dyn.with_temp dyn
                    [ ((qw, probe_keys.(i)), 1) ]
                    (fun () -> Circuits.Dyn.value dyn))
            (fun i -> sink := !sink + Engine.Eval.query ev probe_keys.(i))
        in
        (* exact gate counts, perm writes and allocation per single update *)
        let sets0 = Common.perm_sets () and mw0 = Common.minor_words () in
        let gates = ref 0 in
        for _ = 1 to k do
          let i = step () in
          let (), c =
            Engine.Eval.with_cost ev (fun () ->
                Engine.Eval.update ev "w" probe_keys.(i) probe_vals.(i))
          in
          gates := !gates + c.Engine.Eval.Cost.gates_visited
        done;
        let per_update x = x /. float_of_int k in
        let sets_per_update = per_update (float_of_int (Common.perm_sets () - sets0)) in
        let mw_per_update = per_update (Common.minor_words () -. mw0) in
        (* transactions: gates per wave, the wave alone, the journal append alone *)
        let txns = 16 in
        let batch_gates = ref 0 and wave_ns = ref 0. in
        let append_ns = Stats.create () in
        for _ = 1 to txns do
          let ws = List.init p.batch (fun _ -> ("w", [ pool.(rnd p.hot) ], rnd 1000)) in
          let c = Engine.Eval.update_many_cost ev ws in
          List.iter (fun (_, key, v) -> write (List.hd key) v) ws;
          batch_gates := !batch_gates + c.Engine.Eval.Cost.gates_visited;
          let assignments =
            List.filter_map
              (fun (w, key, v) ->
                if Circuits.Dyn.has_input dyn (w, key) then Some ((w, key), (v + 1) mod 1000)
                else None)
              ws
          in
          let attached = Circuits.Dyn.journal dyn in
          Circuits.Dyn.set_journal dyn None;
          let t0 = Clock.now_ns () in
          Circuits.Dyn.set_inputs dyn assignments;
          wave_ns := !wave_ns +. Clock.since_ns t0;
          Circuits.Dyn.set_journal dyn attached;
          let scratch = Circuits.Journal.create () in
          let t1 = Clock.now_ns () in
          Circuits.Journal.append scratch assignments;
          Stats.add append_ns (Clock.since_ns t1);
          List.iter (fun ((_, key), v) -> write (List.hd key) v) assignments
        done;
        let overhead =
          Common.obs_overhead_pct (fun () ->
              for _ = 1 to k do
                let i = step () in
                Engine.Eval.update ev "w" probe_keys.(i) probe_vals.(i)
              done)
        in
        check_query ();
        let layers =
          st
          @ [
              Common.m "compile.gates_copied_per_op" "count" 0.;
              Common.m "eval.fallbacks" "count" 0.;
              Common.m "dyn.gates_per_update" "count" (per_update (float_of_int !gates));
              Common.m "dyn.gates_per_batch" "count"
                (float_of_int !batch_gates /. float_of_int txns);
              Common.m "dyn.splice_carried_per_op" "count" 0.;
              Common.m "dyn.splice_rebuilt_per_op" "count" 0.;
              Common.m "perm.sets_per_update" "count" sets_per_update;
              Common.m "journal.bytes_per_write" "B"
                (float_of_int (Circuits.Journal.bytes j) /. float_of_int recover_writes);
              Common.m "enum.ticks_per_answer" "count" 0.;
              Common.m "obs.overhead_pct" "%" overhead;
              Common.m "trace.overhead_pct" "%" trace_overhead;
              Common.m "runtime.minor_words_per_update" "count" mw_per_update;
              Common.m "runtime.minor_words_per_answer" "count" 0.;
              Common.m "runtime.major_collections" "count" (float_of_int majors);
            ]
        in
        let specific =
          st_extra
          @ [
              Common.m "dyn.set_input_p50_us" "us" (set_input_p50 /. 1e3);
              Common.m "eval.update_overhead_us" "us" (eval_overhead /. 1e3);
              Common.m "dyn.with_temp_p50_us" "us" (with_temp_p50 /. 1e3);
              Common.m "eval.query_overhead_us" "us" (query_overhead /. 1e3);
              Common.m "dyn.set_inputs_us_per_write" "us"
                (!wave_ns /. float_of_int (txns * p.batch) /. 1e3);
              Common.m "journal.append_us_per_batch" "us" (Stats.quantile append_ns 0.5 /. 1e3);
              Common.m "journal.load_s" "s" load_s;
              Common.m "journal.replay_s" "s" replay_s;
            ]
        in
        ( layers,
          [
            ("workload_layers", Common.metrics_json specific);
            ("traced_cycles", Obs.Json.I traced_cycles);
            ("traced_e2e", Common.metrics_json e2e_traced);
            ("traced_samples", Obs.Json.O samples_traced);
            ("self_time", Common.self_times_json records);
          ] )
    | _ -> ([], [])
  in
  {
    Common.e2e = e2e_untraced;
    layers;
    detail =
      [
        ("facts", Obs.Json.O (facts p));
        ("measured_cycles", Obs.Json.I measured);
        ("raw_end_to_end", Common.metrics_json e2e_raw);
        ("samples", Obs.Json.O samples_untraced);
        ("setup_times_s", Obs.Json.A (List.map (fun x -> Obs.Json.F x) setup.Common.times));
        ("checkpoints", Obs.Json.I !checkpoints);
        ("dyn_creates_general", Obs.Json.I (Common.counter "dyn" "creates_general"));
      ]
      @ recovery @ layer_detail;
    attempted = tally.Common.attempted;
    failed = tally.Common.failed;
    notes = tally.Common.notes;
  }
