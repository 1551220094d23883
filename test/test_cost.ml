(* Tests for per-operation cost attribution (Engine.Eval.Cost): the
   exactness contract — Σ gates_visited over any bracket of operations
   equals the delta of the cumulative dyn/touched_gates counter — plus
   the wave-count semantics of each instrumented entry point (one
   committed wave per batch, one what-if wave per free-variable query,
   one per structural op, zero for a no-op update and for one-shot
   evaluation). *)

open Semiring

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let nat_ops = Intf.ops_of_module (module Instances.Nat)
let int_ops = Intf.ops_of_ring (module Instances.Int_ring)
let bool_ops = Intf.ops_of_finite (module Instances.Bool)
let v x = Logic.Term.Var x
let e x y = Logic.Formula.Rel ("E", [ v x; v y ])

(* weighted degree: Σ_{x,y} [E(x,y)] · w(y) *)
let wdeg_expr =
  Logic.Expr.Sum
    ( [ "x"; "y" ],
      Logic.Expr.Mul [ Logic.Expr.Guard (e "x" "y"); Logic.Expr.Weight ("w", [ v "y" ]) ] )

(* f(x) = Σ_y [E(x,y)] · w(y) — one free variable, so a query sets one
   hidden indicator weight in a what-if wave *)
let wdeg_query_expr =
  Logic.Expr.Sum
    ( [ "y" ],
      Logic.Expr.Mul [ Logic.Expr.Guard (e "x" "y"); Logic.Expr.Weight ("w", [ v "y" ]) ] )

let make_eval expr =
  let g = Graphs.Gen.triangulated_grid 4 4 in
  let inst = Db.Instance.of_graph g in
  let n = Db.Instance.n inst in
  let w = Db.Weights.create ~name:"w" ~arity:1 ~zero:0 in
  Db.Weights.fill_unary w ~n (fun i -> (i mod 5) + 1);
  (Engine.Eval.prepare nat_ops ~tfa_rounds:1 inst (Db.Weights.bundle [ w ]) wdeg_expr, inst, w, expr)

let touched_total () =
  match Obs.find ~scope:"dyn" "touched_gates" with
  | Some (Obs.C c) -> Obs.Counter.get c
  | _ -> 0

(* Σ gates_visited = Δ dyn/touched_gates, exactly, over a mixed bracket
   of single updates and batches — the identity the CLI's `stats --cost`
   cross-check and perfbench's dyn.gates_per_update/_per_batch rely on *)
let cost_matches_counters () =
  Obs.set_enabled true;
  let ev, inst, _, _ = make_eval wdeg_expr in
  let n = Db.Instance.n inst in
  let rng = Random.State.make [| 2026 |] in
  let agg = ref Engine.Eval.Cost.zero in
  let t0 = touched_total () in
  for _ = 1 to 40 do
    let x = Random.State.int rng n and w' = Random.State.int rng 9 in
    let (), c = Engine.Eval.with_cost ev (fun () -> Engine.Eval.update ev "w" [ x ] w') in
    agg := Engine.Eval.Cost.add !agg c
  done;
  for _ = 1 to 5 do
    let batch =
      List.init 16 (fun _ -> ("w", [ Random.State.int rng n ], Random.State.int rng 9))
    in
    agg := Engine.Eval.Cost.add !agg (Engine.Eval.update_many_cost ev batch)
  done;
  let delta = touched_total () - t0 in
  check_bool "bracket saw real work" true (!agg.Engine.Eval.Cost.gates_visited > 0);
  check_int "sum of gates_visited = counter delta (exact)" delta
    !agg.Engine.Eval.Cost.gates_visited;
  (* the per-wave split re-sums to the total *)
  check_int "wave_touched re-sums to gates_visited" !agg.Engine.Eval.Cost.gates_visited
    (List.fold_left ( + ) 0 !agg.Engine.Eval.Cost.wave_touched);
  check_int "one wave_touched entry per wave" !agg.Engine.Eval.Cost.waves
    (List.length !agg.Engine.Eval.Cost.wave_touched)

let wave_semantics () =
  Obs.set_enabled true;
  let ev, inst, _, _ = make_eval wdeg_expr in
  let n = Db.Instance.n inst in
  (* a real batch commits exactly one shared wave *)
  let batch = List.init 12 (fun i -> ("w", [ i mod n ], 7 + i)) in
  let c = Engine.Eval.update_many_cost ev batch in
  check_int "one committed wave per batch" 1 c.Engine.Eval.Cost.waves;
  check_bool "batch touched gates" true (c.Engine.Eval.Cost.gates_visited > 0);
  (* writing the value already in place is free: no wave, no gates *)
  let (), c0 =
    Engine.Eval.with_cost ev (fun () -> Engine.Eval.update ev "w" [ 0 ] 7)
  in
  check_int "equal-value update commits no wave" 0 c0.Engine.Eval.Cost.waves;
  check_int "equal-value update touches no gate" 0 c0.Engine.Eval.Cost.gates_visited;
  (* a tuple the circuit never reads is filtered before the wave *)
  let (), cx =
    Engine.Eval.with_cost ev (fun () -> Engine.Eval.update ev "nope" [ 0 ] 1)
  in
  check_int "irrelevant weight commits no wave" 0 cx.Engine.Eval.Cost.waves

let query_costs_one_wave () =
  Obs.set_enabled true;
  let g = Graphs.Gen.grid 4 3 in
  let inst = Db.Instance.of_graph g in
  let n = Db.Instance.n inst in
  let w = Db.Weights.create ~name:"w" ~arity:1 ~zero:0 in
  Db.Weights.fill_unary w ~n (fun i -> i + 1);
  let t = Engine.Eval.prepare nat_ops ~tfa_rounds:1 inst (Db.Weights.bundle [ w ]) wdeg_query_expr in
  let expected =
    Logic.Expr.eval (module Instances.Nat) inst (Db.Weights.bundle [ w ]) wdeg_query_expr
      ~env:[ ("x", 1) ] ()
  in
  let updates = Obs.counter ~scope:"dyn" "updates" in
  let touched = Obs.counter ~scope:"dyn" "touched_gates" in
  let u0 = Obs.Counter.get updates and t0 = Obs.Counter.get touched in
  let r, c = Engine.Eval.query_cost t [ 1 ] in
  check_int "query_cost returns the query answer" expected r;
  (* the query weights go in as one what-if wave that writes nothing *)
  check_int "query = one what-if wave" 1 c.Engine.Eval.Cost.waves;
  check_bool "the wave did work" true
    (List.for_all (fun g -> g > 0) c.Engine.Eval.Cost.wave_touched);
  check_int "its gates count as touched" c.Engine.Eval.Cost.gates_visited
    (Obs.Counter.get touched - t0);
  check_int "but not as an update" u0 (Obs.Counter.get updates)

let one_shot_cost () =
  Obs.set_enabled true;
  let g = Graphs.Gen.grid 5 4 in
  let inst = Db.Instance.of_graph g in
  let cell = ref None in
  let total =
    Engine.Eval.evaluate nat_ops ~tfa_rounds:1 ~cost:cell inst (Db.Weights.bundle [])
      (Logic.Expr.Sum
         ( [ "x"; "y" ],
           Logic.Expr.Guard (e "x" "y") ))
  in
  check_bool "one-shot answer sane (edge endpoints)" true (total > 0);
  match !cell with
  | None -> Alcotest.fail "evaluate ?cost left the cell empty"
  | Some c ->
      check_int "one-shot has no propagation waves" 0 c.Engine.Eval.Cost.waves;
      check_bool "one-shot split is empty" true (c.Engine.Eval.Cost.wave_touched = []);
      (* every gate evaluated exactly once: gates_visited is the compiled
         circuit's gate count, which the compile gauges carry *)
      check_int "gates_visited = compiled gate count"
        (int_of_float (Obs.Gauge.get (Obs.gauge ~scope:"compile" "gates")))
        c.Engine.Eval.Cost.gates_visited

let checked_batch_cost () =
  Obs.set_enabled true;
  let g = Graphs.Gen.triangulated_grid 3 3 in
  let inst = Db.Instance.of_graph g in
  let n = Db.Instance.n inst in
  let w = Db.Weights.create ~name:"w" ~arity:1 ~zero:0 in
  Db.Weights.fill_unary w ~n (fun i -> i + 1);
  match
    Engine.Eval.prepare_checked nat_ops ~tfa_rounds:1 ~self_check:false inst
      (Db.Weights.bundle [ w ]) wdeg_expr
  with
  | Error _ -> Alcotest.fail "prepare_checked failed"
  | Ok ck ->
      let cell = ref None in
      let t0 = touched_total () in
      (match
         Engine.Eval.update_many_checked ~cost:cell ck
           (List.init 6 (fun i -> ("w", [ i mod n ], 50 + i)))
       with
      | Ok () -> ()
      | Error _ -> Alcotest.fail "checked batch failed");
      (match !cell with
      | None -> Alcotest.fail "update_many_checked ~cost left the cell empty"
      | Some c ->
          check_int "checked batch: one wave" 1 c.Engine.Eval.Cost.waves;
          check_int "checked batch: gates = counter delta" (touched_total () - t0)
            c.Engine.Eval.Cost.gates_visited)

(* One hot-key transaction — many writes to few keys — through
   update_many visits at most half the gates of the same writes applied
   one wave each: repeated keys collapse to their last write and
   ancestors shared by several keys are recomputed once per transaction,
   not once per write. Both sides end on the same value. *)
let hot_key_batch (type a) mode (ops : a Intf.ops) (mk : int -> a) () =
  Obs.set_enabled true;
  let g = Graphs.Gen.random_bounded_degree ~seed:14 ~n:200 ~max_deg:3 in
  let inst = Db.Instance.of_graph g in
  let n = Db.Instance.n inst in
  let w = Db.Weights.create ~name:"w" ~arity:1 ~zero:ops.Intf.zero in
  Db.Weights.fill_unary w ~n mk;
  let prepare () =
    Engine.Eval.prepare ops ~mode ~tfa_rounds:1 inst (Db.Weights.bundle [ w ]) wdeg_expr
  in
  let seq = prepare () and batched = prepare () in
  let rng = Random.State.make [| 96 |] in
  let hot = Array.init 8 (fun _ -> Random.State.int rng n) in
  let txn =
    List.init 256 (fun _ ->
        ("w", [ hot.(Random.State.int rng (Array.length hot)) ], mk (Random.State.int rng 1000)))
  in
  let seq_gates =
    List.fold_left
      (fun acc (sym, tup, x) ->
        let (), c = Engine.Eval.with_cost seq (fun () -> Engine.Eval.update seq sym tup x) in
        acc + c.Engine.Eval.Cost.gates_visited)
      0 txn
  in
  let c = Engine.Eval.update_many_cost batched txn in
  check_bool "batched value = sequential value" true
    (ops.Intf.equal (Engine.Eval.value batched) (Engine.Eval.value seq));
  let batch_gates = c.Engine.Eval.Cost.gates_visited in
  check_bool
    (Printf.sprintf "batch %d gates <= half of sequential %d" batch_gates seq_gates)
    true
    (batch_gates > 0 && 2 * batch_gates <= seq_gates)

(* A structural op — localized or through the full-recompile fallback —
   is one wave that builds the new runtime whole: Σ wave_touched =
   gates_visited = Δ dyn/touched_gates = the new structure's gate count *)
let structural_cost () =
  Obs.set_enabled true;
  let inst = Db.Instance.create Db.Schema.graph_schema ~n:8 in
  let triangles =
    Logic.Expr.Sum
      ( [ "x"; "y"; "z" ],
        Logic.Expr.Guard (Logic.Formula.And [ e "x" "y"; e "y" "z"; e "z" "x" ]) )
  in
  (* edgeless start under a depth bound of 2: growing the path 0-…-7
     serves its first arcs localized and trips the fallback later on *)
  let ev = Engine.Eval.prepare nat_ops ~max_depth:2 inst (Db.Weights.bundle []) triangles in
  let localized = ref 0 and fallbacks = ref 0 in
  for i = 0 to 6 do
    List.iter
      (fun arc ->
        let ch = Engine.Eval.churn_stats ev in
        let fb0 = ch.Engine.Eval.ch_fallbacks in
        let t0 = touched_total () in
        let (), c = Engine.Eval.with_cost ev (fun () -> Engine.Eval.insert_tuple ev "E" arc) in
        let kind = if ch.Engine.Eval.ch_fallbacks > fb0 then "fallback" else "localized" in
        incr (if kind = "fallback" then fallbacks else localized);
        let what = Printf.sprintf "%s insert %d->%d: " kind (List.hd arc) (List.nth arc 1) in
        check_int (what ^ "one wave") 1 c.Engine.Eval.Cost.waves;
        check_int (what ^ "wave_touched re-sums to gates_visited") c.Engine.Eval.Cost.gates_visited
          (List.fold_left ( + ) 0 c.Engine.Eval.Cost.wave_touched);
        check_int (what ^ "gates_visited = counter delta") (touched_total () - t0)
          c.Engine.Eval.Cost.gates_visited;
        check_int (what ^ "gates_visited = new gate count")
          (Circuits.Dyn.num_gates ev.Engine.Eval.dyn)
          c.Engine.Eval.Cost.gates_visited)
      [ [ i; i + 1 ]; [ i + 1; i ] ]
  done;
  check_bool "localized inserts covered" true (!localized > 0);
  check_bool "fallback inserts covered" true (!fallbacks > 0)

(* engine/updates counts every Eval.update call and dyn/updates every
   committed single wave, exactly, after any number of calls (37 is not
   a multiple of any block size); with telemetry disabled neither moves *)
let update_counters_exact () =
  Obs.set_enabled true;
  let ev, inst, _, _ = make_eval wdeg_expr in
  let n = Db.Instance.n inst in
  let get scope name = Obs.Counter.get (Obs.counter ~scope name) in
  let rng = Random.State.make [| 37 |] in
  let run () =
    let sink = ref [] in
    Circuits.Dyn.set_cost_log ev.Engine.Eval.dyn (Some sink);
    let e0 = get "engine" "updates" and d0 = get "dyn" "updates" in
    for i = 1 to 37 do
      (* a few equal-value and irrelevant writes commit no wave *)
      if i mod 9 = 0 then Engine.Eval.update ev "nope" [ 0 ] 1
      else Engine.Eval.update ev "w" [ Random.State.int rng n ] (Random.State.int rng 4)
    done;
    Circuits.Dyn.set_cost_log ev.Engine.Eval.dyn None;
    (get "engine" "updates" - e0, get "dyn" "updates" - d0, List.length !sink)
  in
  let de, dd, waves = run () in
  check_int "engine/updates = calls" 37 de;
  check_bool "some calls committed no wave" true (waves < 37);
  check_int "dyn/updates = committed single waves" waves dd;
  Obs.set_enabled false;
  let de, dd, waves =
    Fun.protect ~finally:(fun () -> Obs.set_enabled true) run
  in
  check_bool "waves still ran while disabled" true (waves > 0);
  check_int "engine/updates frozen while disabled" 0 de;
  check_int "dyn/updates frozen while disabled" 0 dd;
  let de, _, _ = run () in
  check_int "nothing carried over into the re-enabled count" 37 de

let suite =
  [
    Alcotest.test_case "sum of costs = touched counter delta" `Quick cost_matches_counters;
    Alcotest.test_case "wave-count semantics per entry point" `Quick wave_semantics;
    Alcotest.test_case "free-variable query costs one what-if wave" `Quick query_costs_one_wave;
    Alcotest.test_case "one-shot evaluate cost" `Quick one_shot_cost;
    Alcotest.test_case "update counters exact, frozen while disabled" `Quick
      update_counters_exact;
    Alcotest.test_case "structural ops: cost = touched delta = gate count" `Quick
      structural_cost;
    Alcotest.test_case "checked batched update fills the cost cell" `Quick checked_batch_cost;
    Alcotest.test_case "hot-key batch visits fewer gates: general/nat" `Quick
      (hot_key_batch Circuits.Dyn.General nat_ops (fun i -> i mod 7));
    Alcotest.test_case "hot-key batch visits fewer gates: ring/int" `Quick
      (hot_key_batch Circuits.Dyn.Ring int_ops (fun i -> (i mod 13) - 6));
    Alcotest.test_case "hot-key batch visits fewer gates: finite/bool" `Quick
      (hot_key_batch Circuits.Dyn.Finite bool_ops (fun i -> i mod 3 = 0));
  ]
