(* enum_paths — enumeration.

   The 2-path formula E(x,y) ∧ E(y,z) ∧ x ≠ z, prepared in dynamic mode
   (Theorem 24) on a side × side grid. One client repeats: a burst of
   Gaifman-preserving arc toggles (off and back on), one arc flip followed
   by a fresh enumerator's first answer, then the rest of that full
   enumeration pass; every other flip puts back the arc flipped before. *)

let name = "enum_paths"

let why =
  "Fo_enum, Provenance and Enum.Iter do the work and setup compiles the largest raw circuit; \
   the weight-update path is idle"

let var x = Logic.Term.Var x
let e x y = Logic.Formula.Rel ("E", [ var x; var y ])
let phi = Logic.Formula.And [ e "x" "y"; e "y" "z"; Logic.Formula.neq (var "x") (var "z") ]

type params = {
  side : int;
  toggles : int;  (** set_tuple calls per burst *)
  group : int;  (** set_tuple calls per timed group *)
  setups : int;
  check_side : int;  (** grid of the answer-set check against Engine.Reference *)
  trace_cycles : int;
}

let full = { side = 20; toggles = 1024; group = 32; setups = 3; check_side = 5; trace_cycles = 4 }
let tiny = { side = 6; toggles = 64; group = 16; setups = 3; check_side = 4; trace_cycles = 2 }

let facts p =
  [
    ("graph", Obs.Json.S "Graphs.Gen.grid side side, both arc directions");
    ("side", Obs.Json.I p.side);
    ("query", Obs.Json.S "E(x,y) & E(y,z) & x <> z, Fo_enum dynamic mode");
    ("burst_toggles", Obs.Json.I p.toggles);
    ("group", Obs.Json.I p.group);
    ( "cycle",
      Obs.Json.S "toggle burst (arc off then on), one arc flip + fresh enumerator, full pass" );
    ("check_side", Obs.Json.I p.check_side);
    ("heavy_op", Obs.Json.S "one arc flip (set_tuple) to the first answer of a fresh enumerator");
    ("read_op", Obs.Json.S "one next answer of a running enumeration");
    ("update_op", Obs.Json.S "one Fo_enum.set_tuple");
  ]

(* Answers of φ on a list of present arcs, counted independently of the
   engine: for every arc x→y, the arcs y→z with z ≠ x. *)
let path_count n (arcs : int array array) (present : bool array) =
  let out = Array.make n [] in
  Array.iteri (fun i a -> if present.(i) then out.(a.(0)) <- a.(1) :: out.(a.(0))) arcs;
  let c = ref 0 in
  Array.iteri
    (fun i a ->
      if present.(i) then List.iter (fun z -> if z <> a.(0) then incr c) out.(a.(1)))
    arcs;
  !c

let sorted_arcs inst =
  let a = Array.of_list (List.map Array.of_list (Db.Instance.tuples inst "E")) in
  Array.sort compare a;
  a

(* The answer set on a small grid with every [k]-th arc removed, against
   Engine.Reference.answers. *)
let reference_check side =
  let inst = Db.Instance.of_graph (Graphs.Gen.grid side side) in
  let t = Fo_enum.prepare ~dynamic:true inst phi in
  let live = Fo_enum.instance t in
  let gaifman = Db.Instance.gaifman live in
  Array.iteri
    (fun i a -> if i mod 5 = 0 then Fo_enum.set_tuple t ~gaifman "E" (Array.to_list a) false)
    (sorted_arcs live);
  let got = List.sort compare (List.map Array.to_list (Fo_enum.answers t)) in
  let _, want = Engine.Reference.answers live phi in
  got = List.sort compare want

(* Prepare stages, each timed alone, against a whole Fo_enum.prepare:
   the closed expression Fo_enum compiles (φ guarding one enumeration
   weight per free variable), then the optimizer. *)
let stage_probes p inst =
  let fv = Logic.Formula.free_vars_unique phi in
  let closed =
    Logic.Expr.Sum
      ( fv,
        Logic.Expr.Mul
          (Logic.Expr.Guard phi
          :: List.mapi (fun i x -> Logic.Expr.Weight (Fo_enum.weight_sym i, [ var x ])) fv) )
  in
  let raw_compile inst =
    fst
      (Engine.Compile.compile ~zero:false ~one:true ~opt:Opt.none ~dynamic_rels:[ "E" ] inst
         closed)
  in
  let gates = ref (0., 0.) in
  let full_s, times =
    Common.stage_split ~reps:p.setups
      ~full:(fun () -> Fo_enum.prepare ~dynamic:true inst phi)
      ~stages:(fun () ->
        let raw_s, raw = Common.timed (fun () -> raw_compile inst) in
        let opt_s, o =
          Common.timed (fun () -> Opt.run ~zero:false ~one:true ~equal:Bool.equal raw)
        in
        let count c = float_of_int (Circuits.Circuit.stats c).Circuits.Circuit.gates in
        gates := (count raw, count o.Opt.circuit);
        [ raw_s; opt_s ])
  in
  let raw_s, opt_s = match times with [ a; b ] -> (a, b) | _ -> assert false in
  let small_side = p.side / 2 in
  let small = Db.Instance.of_graph (Graphs.Gen.grid small_side small_side) in
  let raw_small_s = Common.median_time ~reps:p.setups (fun () -> ignore (raw_compile small)) in
  ( [
      Common.m "compile.raw_s" "s" raw_s;
      Common.m "compile.raw_gates" "count" (fst !gates);
      Common.m "compile.scaling_exp" "ratio"
        (Common.slope ~n_small:(small_side * small_side) ~t_small:raw_small_s
           ~n_big:(p.side * p.side) ~t_big:raw_s);
      Common.m "opt.run_s" "s" opt_s;
      Common.m "opt.gates" "count" (snd !gates);
      Common.m "eval.setup_residual_pct" "%" (Common.pct (full_s -. raw_s -. opt_s) full_s);
    ],
    full_s )

let run ~smoke ~seed ~seconds ~trace ~out_dir : Common.outcome =
  let p = if smoke then tiny else full in
  let rng = Random.State.make [| seed; 3 |] in
  let rnd k = Random.State.int rng k in
  let inst = Db.Instance.of_graph (Graphs.Gen.grid p.side p.side) in
  let n = Db.Instance.n inst in
  (* stage probes run first, on the same near-empty heap as the prepares *)
  let stages = if trace then Some (stage_probes p inst) else None in
  let t, _, setup =
    Common.measure_setup ~reps:p.setups (fun () -> Fo_enum.prepare ~dynamic:true inst phi)
  in
  let live = Fo_enum.instance t in
  let gaifman = Db.Instance.gaifman live in
  let arcs = sorted_arcs live in
  let tuples = Array.map Array.to_list arcs in
  let present = Array.make (Array.length arcs) true in
  let tally = Common.tally () in
  let upd = Stats.create () and delay = Stats.create () and first = Stats.create () in
  let answers = ref [] and cycles = ref 0 in
  let picks = Array.make (p.group / 2) 0 in
  (* two set_tuples that leave arc [a] as it was: a present arc goes off
     and back on, an absent one on and off *)
  let toggle_twice a =
    Fo_enum.set_tuple t ~gaifman "E" tuples.(a) (not present.(a));
    Fo_enum.set_tuple t ~gaifman "E" tuples.(a) present.(a)
  in
  let burst () =
    for _ = 1 to p.toggles / p.group do
      Array.iteri (fun i _ -> picks.(i) <- rnd (Array.length arcs)) picks;
      match
        Common.timed_group tally p.group (fun () ->
            Common.span "set_tuple group" @@ fun () ->
            Array.iter toggle_twice picks)
      with
      | Some dt -> Stats.add upd (dt /. float_of_int p.group)
      | None -> ()
    done
  in
  (* Every other pass flips back the arc the pass before it flipped, so
     the instance never strays more than one arc from the grid. *)
  let pending = ref None in
  let pass () =
    let a =
      match !pending with
      | Some a ->
          pending := None;
          a
      | None ->
          let a = rnd (Array.length arcs) in
          pending := Some a;
          a
    in
    present.(a) <- not present.(a);
    answers := [];
    Calib.maybe ();
    let t0 = Clock.now_ns () in
    tally.Common.attempted <- tally.Common.attempted + 1;
    match
      Common.span "first_answer" @@ fun () ->
      Fo_enum.set_tuple t ~gaifman "E" tuples.(a) present.(a);
      let it = Common.span "enumerate" (fun () -> Fo_enum.enumerate t) in
      Enum.Iter.next it;
      (it, Enum.Iter.current it)
    with
    | exception ex ->
        tally.Common.failed <- tally.Common.failed + 1;
        Common.note tally (Printexc.to_string ex)
    | it, cur ->
        Stats.add first (Clock.since_ns t0);
        let rec go = function
          | None -> ()
          | Some ans ->
              answers := ans :: !answers;
              let t1 = Clock.now_ns () in
              Enum.Iter.next it;
              let c = Enum.Iter.current it in
              if c <> None then Stats.add delay (Clock.since_ns t1);
              Calib.maybe ();
              go c
        in
        go cur;
        let got = List.length !answers in
        tally.Common.attempted <- tally.Common.attempted + got;
        let seen = Hashtbl.create (2 * got) in
        List.iter (fun a -> Hashtbl.replace seen a ()) !answers;
        Common.check tally "enumeration is duplicate-free" (Hashtbl.length seen = got);
        Common.check tally "answer count = independent 2-path count"
          (got = path_count n arcs present)
  in
  let cycle () =
    incr cycles;
    burst ();
    pass ()
  in
  let cut () =
    Stats.cut upd;
    Stats.cut delay;
    Stats.cut first
  in
  let reset () =
    Stats.clear upd;
    Stats.clear delay;
    Stats.clear first
  in
  (* times machine-speed scaled (see Calib); [~raw:true] gives the clock's *)
  let e2e ?(raw = false) () =
    let sc x = if raw then x else Stats.scaled x in
    let upd = sc upd and delay = sc delay and first = sc first in
    [
      Common.m "setup_s" "s" setup.Common.setup_s;
      Common.m "setup_heap_mb" "MB" setup.Common.heap_mb;
      Common.m "update_p50_us" "us" (Stats.sliced_quantile upd 0.5 /. 1e3);
      Common.m "update_tput" "1/s" (1e9 /. Stats.sliced_mean upd);
      Common.m "read_p50_us" "us" (Stats.sliced_quantile delay 0.5 /. 1e3);
      Common.m "heavy_p50_ms" "ms" (Stats.sliced_quantile first 0.5 /. 1e6);
    ]
  in
  let samples () =
    [
      ("set_tuple_ns_per_op", Stats.summary upd);
      ("answer_delay_ns", Stats.summary delay);
      ("first_answer_ns", Stats.summary first);
      ("answers_last_pass", Obs.Json.I (List.length !answers));
    ]
  in
  ignore (Common.run_for ~max_cycles:1 ~seconds:1. cycle);
  reset ();
  let measured =
    Common.run_for ~on_slice:cut ~seconds:(if trace then seconds /. 2. else seconds) cycle
  in
  let e2e_untraced = e2e () and e2e_raw = e2e ~raw:true () in
  let samples_untraced = samples () in
  let layers, layer_detail =
    if not trace then ([], [])
    else begin
      reset ();
      let majors0 = Common.major_collections () in
      let traced_cycles, records =
        Common.traced (fun () ->
            Common.run_for ~on_slice:cut ~max_cycles:p.trace_cycles ~seconds:(seconds /. 2.)
              cycle)
      in
      let majors = Common.major_collections () - majors0 in
      let e2e_traced = e2e () in
      Common.write_file
        (Filename.concat out_dir (name ^ ".trace.json"))
        (Obs.Json.to_string (Obs.Trace.to_chrome records));
      let get name' l = (List.find (fun x -> x.Common.name = name') l).Common.value in
      let trace_overhead =
        Common.pct
          (get "read_p50_us" e2e_traced -. get "read_p50_us" e2e_untraced)
          (get "read_p50_us" e2e_untraced)
      in
      (* the heavy op split: set_tuple, iterator DAG build, first next *)
      let reps = 3 in
      let a = rnd (Array.length arcs) in
      let set_ns = ref [] and build_ns = ref [] and next_ns = ref [] in
      for _ = 1 to reps do
        present.(a) <- not present.(a);
        let t0 = Clock.now_ns () in
        Fo_enum.set_tuple t ~gaifman "E" tuples.(a) present.(a);
        let t1 = Clock.now_ns () in
        let it = Fo_enum.enumerate t in
        let t2 = Clock.now_ns () in
        Enum.Iter.next it;
        let t3 = Clock.now_ns () in
        set_ns := float_of_int (t1 - t0) :: !set_ns;
        build_ns := float_of_int (t2 - t1) :: !build_ns;
        next_ns := float_of_int (t3 - t2) :: !next_ns
      done;
      (* per-answer work and allocation over one full pass *)
      let it = Fo_enum.enumerate t in
      let ticks0 = !Enum.Iter.ticks and mw0 = Common.minor_words () in
      let count = ref 0 in
      Enum.Iter.next it;
      while Enum.Iter.current it <> None do
        incr count;
        Enum.Iter.next it
      done;
      let per_answer x = x /. float_of_int (max 1 !count) in
      let ticks_per_answer = per_answer (float_of_int (!Enum.Iter.ticks - ticks0)) in
      let mw_per_answer = per_answer (Common.minor_words () -. mw0) in
      let k = 4096 in
      let ks = Array.init k (fun _ -> rnd (Array.length arcs)) in
      let mw1 = Common.minor_words () in
      Array.iter toggle_twice ks;
      let mw_per_update = (Common.minor_words () -. mw1) /. float_of_int (2 * k) in
      let overhead =
        Common.obs_overhead_pct (fun () -> Array.iter toggle_twice ks)
      in
      let st, prepare_s = Option.get stages in
      let layers =
        st
        @ [
          Common.m "compile.gates_copied_per_op" "count" 0.;
          Common.m "eval.fallbacks" "count" 0.;
          Common.m "dyn.gates_per_update" "count" 0.;
          Common.m "dyn.gates_per_batch" "count" 0.;
          Common.m "dyn.splice_carried_per_op" "count" 0.;
          Common.m "dyn.splice_rebuilt_per_op" "count" 0.;
          Common.m "perm.sets_per_update" "count" 0.;
          Common.m "journal.bytes_per_write" "B" 0.;
          Common.m "enum.ticks_per_answer" "count" ticks_per_answer;
          Common.m "obs.overhead_pct" "%" overhead;
          Common.m "trace.overhead_pct" "%" trace_overhead;
          Common.m "runtime.minor_words_per_update" "count" mw_per_update;
          Common.m "runtime.minor_words_per_answer" "count" mw_per_answer;
          Common.m "runtime.major_collections" "count" (float_of_int majors);
        ]
      in
      let specific =
        [
          Common.m "eval.prepare_s" "s" prepare_s;
          Common.m "fo_enum.set_tuple_us" "us" (Stats.median_of !set_ns /. 1e3);
          Common.m "fo_enum.enumerate_ms" "ms" (Stats.median_of !build_ns /. 1e6);
          Common.m "fo_enum.first_next_ms" "ms" (Stats.median_of !next_ns /. 1e6);
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
  Common.check tally "answer set = Engine.Reference.answers on a small grid"
    (reference_check p.check_side);
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
      ]
      @ layer_detail;
    attempted = tally.Common.attempted;
    failed = tally.Common.failed;
    notes = tally.Common.notes;
  }
