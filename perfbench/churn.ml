(* churn_ring — structural maintenance.

   Weighted triangles Σ_xyz [E(x,y) ∧ E(y,z) ∧ E(z,x)]·w(x) over the
   integer ring (Ring mode: power-sum permanents, O(1) weight updates) on
   a side × side grid with half of the cell diagonals. One client
   repeats: reads of the maintained value, two weight updates, more
   reads, then one insert or delete of a cell-diagonal arc through
   Eval.insert_tuple / Eval.delete_tuple. *)

open Semiring

let name = "churn_ring"

let why =
  "recompile_local, the Opt re-run, Dyn.splice and Graphs.Live dominate; Ring-mode weight \
   updates use Dyn unlike serve_weights"

let int_ops = Intf.with_int_repr (Intf.ops_of_ring (module Instances.Int_ring))
let var x = Logic.Term.Var x
let e x y = Logic.Formula.Rel ("E", [ var x; var y ])

let wtri_expr =
  Logic.Expr.Sum
    ( [ "x"; "y"; "z" ],
      Logic.Expr.Mul
        [
          Logic.Expr.Guard (Logic.Formula.And [ e "x" "y"; e "y" "z"; e "z" "x" ]);
          Logic.Expr.Weight ("w", [ var "x" ]);
        ] )

type params = {
  side : int;
  reads : int;  (** value reads per timed group *)
  check_every : int;  (** cycles between reference checks *)
  setups : int;
  trace_cycles : int;
}

let full = { side = 7; reads = 16; check_every = 8; setups = 3; trace_cycles = 16 }
let tiny = { side = 4; reads = 4; check_every = 1; setups = 3; trace_cycles = 3 }

let facts p =
  [
    ( "graph",
      Obs.Json.S "Graphs.Gen.grid side side, both arc directions, plus the diagonal of every cell with r+c even" );
    ("side", Obs.Json.I p.side);
    ("semiring", Obs.Json.S "int ring (Ring mode, power-sum permanents)");
    ("query", Obs.Json.S "sum_xyz [E(x,y) & E(y,z) & E(z,x)] * w(x), closed");
    ("weights", Obs.Json.S "uniform in [-5,5]");
    ( "cycle",
      Obs.Json.S "read group, two weight updates (one timed group), read group, one arc insert or delete"
    );
    ("heavy_op", Obs.Json.S "one Eval.insert_tuple or Eval.delete_tuple");
    ("read_op", Obs.Json.S "one read of the maintained value, Eval.query []");
    ( "structural_arcs",
      Obs.Json.S
        "cell diagonals (r,c) -> (r+1,c+1): cells in a seeded round-robin order, each toggled and then toggled back by the next op"
    );
    ("reads_per_group", Obs.Json.I p.reads);
  ]

(* The grid with the diagonal (r,c) -> (r+1,c+1) of every cell with r+c
   even, so that triangles exist from the start. *)
let diagonal side r c =
  let u = (r * side) + c in
  [ u; u + side + 1 ]

let base_instance side =
  let inst = Db.Instance.of_graph (Graphs.Gen.grid side side) in
  for r = 0 to side - 2 do
    for c = 0 to side - 2 do
      if (r + c) land 1 = 0 then Db.Instance.add inst "E" (diagonal side r c)
    done
  done;
  inst

(* Prepare stages, each timed alone on the same inputs, against a whole
   prepare. *)
let stage_probes p inst weights =
  let equal = int_ops.Intf.equal in
  let raw_compile inst =
    fst (Engine.Compile.compile ~zero:0 ~one:1 ~equal ~opt:Opt.none inst wtri_expr)
  in
  let valuation (w, tuple) =
    if w = "w" then Db.Weights.get (Db.Weights.find weights w) tuple else 0
  in
  let gates = ref (0., 0.) in
  let full_s, times =
    Common.stage_split ~reps:p.setups
      ~full:(fun () -> Engine.Eval.prepare int_ops inst weights wtri_expr)
      ~stages:(fun () ->
        let raw_s, raw = Common.timed (fun () -> raw_compile inst) in
        let opt_s, o = Common.timed (fun () -> Opt.run ~zero:0 ~one:1 ~equal raw) in
        let c = o.Opt.circuit in
        let create_s, _ = Common.timed (fun () -> Circuits.Dyn.create int_ops c valuation) in
        let freeze_s, _ = Common.timed (fun () -> Circuits.Compact.of_circuit c) in
        let count c = float_of_int (Circuits.Circuit.stats c).Circuits.Circuit.gates in
        gates := (count raw, count c);
        [ raw_s; opt_s; create_s; freeze_s ])
  in
  let raw_s, opt_s, create_s, freeze_s =
    match times with [ a; b; c; d ] -> (a, b, c, d) | _ -> assert false
  in
  let small_side = (p.side + 1) / 2 in
  let small = base_instance small_side in
  let raw_small_s = Common.median_time ~reps:p.setups (fun () -> ignore (raw_compile small)) in
  ( [
      Common.m "compile.raw_s" "s" raw_s;
      Common.m "compile.raw_gates" "count" (fst !gates);
      Common.m "compile.scaling_exp" "ratio"
        (Common.slope ~n_small:(small_side * small_side) ~t_small:raw_small_s
           ~n_big:(p.side * p.side) ~t_big:raw_s);
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
  let rng = Random.State.make [| seed; 2 |] in
  let rnd k = Random.State.int rng k in
  let inst = base_instance p.side in
  let n = Db.Instance.n inst in
  let weight () = rnd 11 - 5 in
  let init = Array.init n (fun _ -> weight ()) in
  let bundle_of () =
    let w = Db.Weights.create ~name:"w" ~arity:1 ~zero:0 in
    Db.Weights.fill_unary w ~n (fun i -> init.(i));
    (w, Db.Weights.bundle [ w ])
  in
  let _, weights0 = bundle_of () in
  let mirror_w, mirror = bundle_of () in
  (* stage probes run first, on the same near-empty heap as the prepares *)
  let stages = if trace then Some (stage_probes p inst weights0) else None in
  let ev, _, setup =
    Common.measure_setup ~reps:p.setups (fun () ->
        Engine.Eval.prepare int_ops inst weights0 wtri_expr)
  in
  let tally = Common.tally () in
  let upd = Stats.create () and rd = Stats.create () and st = Stats.create () in
  let sink = ref 0 and cycles = ref 0 and inserts = ref 0 and deletes = ref 0 in
  let check_value () =
    Common.check tally "value = Engine.Reference on the mutated instance"
      (match Engine.Eval.query ev [] with
      | got -> got = Engine.Reference.eval int_ops inst mirror wtri_expr
      | exception _ -> false)
  in
  (* the two weight updates of a cycle, timed as one group: the first
     lands on caches the structural op just cooled, the second does not *)
  let updates () =
    let k1 = [ rnd n ] and v1 = weight () and k2 = [ rnd n ] and v2 = weight () in
    (match
       Common.timed_group tally 2 (fun () ->
           Common.span "update x2" (fun () ->
               Engine.Eval.update ev "w" k1 v1;
               Engine.Eval.update ev "w" k2 v2))
     with
    | Some dt -> Stats.add upd (dt /. 2.)
    | None -> ());
    Db.Weights.set mirror_w k1 v1;
    Db.Weights.set mirror_w k2 v2
  in
  let read () =
    match
      Common.timed_group tally p.reads (fun () ->
          Common.span "read group" (fun () ->
              for _ = 1 to p.reads do
                sink := !sink + Engine.Eval.query ev []
              done))
    with
    | Some dt -> Stats.add rd (dt /. float_of_int p.reads)
    | None -> ()
  in
  (* Every other structural op puts back the arc the one before it
     toggled, so the instance never strays more than one arc from the
     base. The toggled cells go round a seeded permutation of all cells,
     so that every run covers the cells alike (their costs differ). *)
  let cells = Array.init ((p.side - 1) * (p.side - 1)) Fun.id in
  for i = Array.length cells - 1 downto 1 do
    let j = rnd (i + 1) in
    let x = cells.(i) in
    cells.(i) <- cells.(j);
    cells.(j) <- x
  done;
  let next_cell = ref 0 and pending = ref None in
  let structural () =
    let arc =
      match !pending with
      | Some a ->
          pending := None;
          a
      | None ->
          let c = cells.(!next_cell mod Array.length cells) in
          incr next_cell;
          let a = diagonal p.side (c / (p.side - 1)) (c mod (p.side - 1)) in
          pending := Some a;
          a
    in
    let present = Db.Instance.mem inst "E" arc in
    (match
       Common.timed_group tally 1 (fun () ->
           if present then Common.span "delete_tuple" (fun () -> Engine.Eval.delete_tuple ev "E" arc)
           else Common.span "insert_tuple" (fun () -> Engine.Eval.insert_tuple ev "E" arc))
     with
    | Some dt -> Stats.add st dt
    | None -> ());
    if present then incr deletes else incr inserts
  in
  let cycle () =
    incr cycles;
    read ();
    updates ();
    read ();
    structural ();
    if !cycles mod p.check_every = 0 then check_value ()
  in
  let cut () =
    Stats.cut upd;
    Stats.cut rd;
    Stats.cut st
  in
  let reset () =
    Stats.clear upd;
    Stats.clear rd;
    Stats.clear st
  in
  (* times machine-speed scaled (see Calib); [~raw:true] gives the clock's *)
  let e2e ?(raw = false) () =
    let sc x = if raw then x else Stats.scaled x in
    let upd = sc upd and rd = sc rd and st = sc st in
    [
      Common.m "setup_s" "s" setup.Common.setup_s;
      Common.m "setup_heap_mb" "MB" setup.Common.heap_mb;
      Common.m "update_p50_us" "us" (Stats.sliced_quantile upd 0.5 /. 1e3);
      Common.m "update_tput" "1/s" (1e9 /. Stats.sliced_mean upd);
      Common.m "read_p50_us" "us" (Stats.sliced_quantile rd 0.5 /. 1e3);
      Common.m "heavy_p50_ms" "ms" (Stats.sliced_quantile st 0.5 /. 1e6);
    ]
  in
  let samples () =
    [
      ("update_ns_per_op", Stats.summary upd);
      ("read_ns_per_op", Stats.summary rd);
      ("struct_ns", Stats.summary st);
    ]
  in
  ignore (Common.run_for ~seconds:(Float.min 1. (seconds /. 10.)) cycle);
  reset ();
  let measured =
    Common.run_for ~on_slice:cut ~seconds:(if trace then seconds /. 2. else seconds) cycle
  in
  let e2e_untraced = e2e () and e2e_raw = e2e ~raw:true () in
  let samples_untraced = samples () in
  let struct_p50 = Stats.quantile st 0.5 in
  let layers, layer_detail =
    if not trace then ([], [])
    else begin
      reset ();
      let majors0 = Common.major_collections () in
      let ch0 = Engine.Eval.churn_stats ev in
      let loc0 = ch0.Engine.Eval.ch_localized + ch0.Engine.Eval.ch_fallbacks in
      let carried0 = ch0.Engine.Eval.ch_gates_carried
      and rebuilt0 = ch0.Engine.Eval.ch_gates_rebuilt in
      let copied0 = Common.counter "compile" "gates_copied" in
      let traced_cycles, records =
        Common.traced (fun () ->
            Common.run_for ~on_slice:cut ~max_cycles:p.trace_cycles ~seconds:(seconds /. 2.)
              cycle)
      in
      let majors = Common.major_collections () - majors0 in
      let ch = Engine.Eval.churn_stats ev in
      let ops = float_of_int (ch.Engine.Eval.ch_localized + ch.Engine.Eval.ch_fallbacks - loc0) in
      let per_op x = x /. Float.max 1. ops in
      let copied = Common.counter "compile" "gates_copied" - copied0 in
      let e2e_traced = e2e () in
      Common.write_file
        (Filename.concat out_dir (name ^ ".trace.json"))
        (Obs.Json.to_string (Obs.Trace.to_chrome records));
      let get name' l = (List.find (fun x -> x.Common.name = name') l).Common.value in
      let trace_overhead =
        Common.pct
          (get "heavy_p50_ms" e2e_traced -. get "heavy_p50_ms" e2e_untraced)
          (get "heavy_p50_ms" e2e_untraced)
      in
      (* a from-scratch prepare of the mutated instance, against the
         localized structural op *)
      let scratch_s =
        Common.median_time ~reps:p.setups (fun () ->
            ignore (Engine.Eval.prepare int_ops (Db.Instance.copy inst) mirror wtri_expr))
      in
      (* the weight-update path below its public entry point *)
      let k = 4096 in
      let keys = Array.init k (fun _ -> [ rnd n ]) in
      let vals = Array.init k (fun _ -> weight ()) in
      let dyn = ev.Engine.Eval.dyn in
      let commit () = Array.iteri (fun i key -> Db.Weights.set mirror_w key vals.(i)) keys in
      let pass = ref 0 in
      let next_value i =
        vals.(i) <- ((vals.(i) + 6 + !pass) mod 11) - 5;
        vals.(i)
      in
      let next = ref 0 in
      let step () =
        let i = !next mod k in
        incr next;
        if i = 0 then incr pass;
        i
      in
      let set_input_p50, eval_overhead =
        Common.paired_p50 ~groups:(k / 8) ~group:8
          (fun _ ->
            let i = step () in
            let key = ("w", keys.(i)) and v = next_value i in
            if Circuits.Dyn.has_input dyn key then Circuits.Dyn.set_input dyn key v)
          (fun _ ->
            let i = step () in
            Engine.Eval.update ev "w" keys.(i) (next_value i))
      in
      commit ();
      incr pass;
      let sets0 = Common.perm_sets () and mw0 = Common.minor_words () in
      let gates = ref 0 in
      for i = 0 to k - 1 do
        let (), c =
          Engine.Eval.with_cost ev (fun () -> Engine.Eval.update ev "w" keys.(i) (next_value i))
        in
        gates := !gates + c.Engine.Eval.Cost.gates_visited
      done;
      commit ();
      let per_update x = x /. float_of_int k in
      let sets_per_update = per_update (float_of_int (Common.perm_sets () - sets0)) in
      let mw_per_update = per_update (Common.minor_words () -. mw0) in
      let overhead =
        Common.obs_overhead_pct (fun () ->
            incr pass;
            for i = 0 to k - 1 do
              Engine.Eval.update ev "w" keys.(i) (next_value i)
            done)
      in
      commit ();
      check_value ();
      let st, st_extra = Option.get stages in
      let layers =
        st
        @ [
          Common.m "compile.gates_copied_per_op" "count" (per_op (float_of_int copied));
          Common.m "eval.fallbacks" "count" (float_of_int ch.Engine.Eval.ch_fallbacks);
          Common.m "dyn.gates_per_update" "count" (per_update (float_of_int !gates));
          Common.m "dyn.gates_per_batch" "count" 0.;
          Common.m "dyn.splice_carried_per_op" "count"
            (per_op (float_of_int (ch.Engine.Eval.ch_gates_carried - carried0)));
          Common.m "dyn.splice_rebuilt_per_op" "count"
            (per_op (float_of_int (ch.Engine.Eval.ch_gates_rebuilt - rebuilt0)));
          Common.m "perm.sets_per_update" "count" sets_per_update;
          Common.m "journal.bytes_per_write" "B" 0.;
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
          Common.m "eval.scratch_ratio" "ratio" (scratch_s *. 1e9 /. struct_p50);
        ]
      in
      ( layers,
        [
          ("workload_layers", Common.metrics_json specific);
          ("traced_cycles", Obs.Json.I traced_cycles);
          ("traced_e2e", Common.metrics_json e2e_traced);
          ("traced_samples", Obs.Json.O (samples ()));
          ("self_time", Common.self_times_json records);
        ] )
    end
  in
  check_value ();
  let ch = Engine.Eval.churn_stats ev in
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
        ("inserts", Obs.Json.I !inserts);
        ("deletes", Obs.Json.I !deletes);
        ("localized", Obs.Json.I ch.Engine.Eval.ch_localized);
        ("eval.fallbacks", Obs.Json.I ch.Engine.Eval.ch_fallbacks);
        ("dyn_creates_ring", Obs.Json.I (Common.counter "dyn" "creates_ring"));
      ]
      @ layer_detail;
    attempted = tally.Common.attempted;
    failed = tally.Common.failed;
    notes = tally.Common.notes;
  }
