(* Tests for the robustness layer: the error taxonomy, compile budgets,
   graceful degradation to the reference evaluator, self-checking, and
   fault-injected dynamic updates. *)

open Semiring

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let v x = Logic.Term.Var x
let e x y = Logic.Formula.Rel ("E", [ v x; v y ])
let nat_ops = Intf.ops_of_module (module Instances.Nat)
let int_ops = Intf.ops_of_ring (module Instances.Int_ring)

module Z4 = Zmod.Make (struct
  let modulus = 4
end)

let z4_ops = { (Intf.ops_of_finite (module Z4)) with Intf.neg = Some Z4.neg }

let triangle = Logic.Formula.And [ e "x" "y"; e "y" "z"; e "z" "x" ]
let path2 = Logic.Formula.And [ e "x" "y"; e "y" "z"; Logic.Formula.neq (v "x") (v "z") ]

let count_expr phi =
  Logic.Expr.Sum (Logic.Formula.free_vars_unique phi, Logic.Expr.Guard phi)

(* Σ_{x,y} [E(x,y)] · w(x) · w(y): a closed weighted expression whose
   circuit reads every unary weight, so updates and faults reach it. *)
let edge_weight_expr =
  Logic.Expr.Sum
    ( [ "x"; "y" ],
      Logic.Expr.Mul
        [
          Logic.Expr.Guard (e "x" "y");
          Logic.Expr.Weight ("w", [ v "x" ]);
          Logic.Expr.Weight ("w", [ v "y" ]);
        ] )

let weighted_setup ~of_int g =
  let inst = Db.Instance.of_graph g in
  let w = Db.Weights.create ~name:"w" ~arity:1 ~zero:(of_int 0) in
  Db.Weights.fill_unary w ~n:(Db.Instance.n inst) (fun i -> of_int (((i * 5) + 2) mod 11));
  (inst, w, Db.Weights.bundle [ w ])

let unwrap what = function
  | Ok x -> x
  | Error e -> Alcotest.failf "%s: unexpected error %s" what (Robust.to_string e)

(* --- taxonomy basics --- *)

let taxonomy () =
  check_bool "budget degradable" true (Robust.degradable (Robust.Budget_exceeded "b"));
  check_bool "fragment degradable" true (Robust.degradable (Robust.Unsupported_fragment "f"));
  check_bool "bad input is not" false (Robust.degradable (Robust.Bad_input "i"));
  check_bool "ill-typed is not" false (Robust.degradable (Robust.Ill_typed "t"));
  check_bool "divergence is not" false (Robust.degradable (Robust.Internal_divergence "d"));
  (match Robust.protect (fun () -> invalid_arg "quantifier depth not supported") with
  | Error (Robust.Unsupported_fragment _) -> ()
  | _ -> Alcotest.fail "expected Unsupported_fragment from the message classifier");
  (match Robust.protect (fun () -> raise Not_found) with
  | Error (Robust.Bad_input _) -> ()
  | _ -> Alcotest.fail "expected Bad_input for Not_found");
  check_int "protect passes values" 7 (unwrap "protect" (Robust.protect (fun () -> 7)));
  (* unclassifiable exceptions are re-raised, not swallowed *)
  match Robust.protect (fun () -> raise Exit) with
  | exception Exit -> ()
  | _ -> Alcotest.fail "expected Exit to escape protect"

(* --- budgets and graceful degradation --- *)

let budget_degrades () =
  let inst = Db.Instance.of_graph (Graphs.Gen.triangulated_grid 4 4) in
  let weights = Db.Weights.bundle [] in
  let expr = count_expr triangle in
  let full = Engine.Eval.evaluate nat_ops ~tfa_rounds:1 inst weights expr in
  check_bool "workload has triangles" true (full > 0);
  (* a 1-gate budget cannot fit any circuit: the checked path must degrade
     to the reference evaluator and still return the same value *)
  let budget = Robust.budget ~max_gates:1 () in
  let ck =
    unwrap "prepare under budget"
      (Engine.Eval.prepare_checked nat_ops ~tfa_rounds:1 ~budget inst weights expr)
  in
  (match Engine.Eval.degraded ck with
  | Some (Robust.Budget_exceeded _) -> ()
  | Some err -> Alcotest.failf "wrong degradation reason: %s" (Robust.to_string err)
  | None -> Alcotest.fail "expected a degraded backend under a 1-gate budget");
  check_int "reference value = circuit value" full
    (unwrap "value_checked" (Engine.Eval.value_checked ck));
  (* one-shot checked evaluation reports the degradation reason *)
  (match
     Engine.Eval.evaluate_checked nat_ops ~tfa_rounds:1 ~budget inst weights expr
   with
  | Ok (value, Some (Robust.Budget_exceeded _)) ->
      check_int "evaluate_checked fallback value" full value
  | Ok (_, reason) ->
      Alcotest.failf "expected a budget reason, got %s"
        (match reason with None -> "none" | Some e -> Robust.to_string e)
  | Error e -> Alcotest.failf "unexpected error %s" (Robust.to_string e));
  (* ~fallback:`Fail surfaces the error instead of degrading *)
  (match
     Engine.Eval.prepare_checked nat_ops ~tfa_rounds:1 ~budget ~fallback:`Fail inst
       weights expr
   with
  | Error (Robust.Budget_exceeded _) -> ()
  | Error e -> Alcotest.failf "wrong error under `Fail: %s" (Robust.to_string e)
  | Ok _ -> Alcotest.fail "expected Budget_exceeded under ~fallback:`Fail");
  (* a generous budget compiles normally — no spurious degradation *)
  let roomy = Robust.budget ~max_gates:10_000_000 ~timeout_ms:600_000 () in
  let ck =
    unwrap "prepare under roomy budget"
      (Engine.Eval.prepare_checked nat_ops ~tfa_rounds:1 ~budget:roomy inst weights expr)
  in
  check_bool "not degraded" true (Engine.Eval.degraded ck = None);
  check_int "same value" full (unwrap "value" (Engine.Eval.value_checked ck))

(* Timeout budgets read Obs.now_ns, so a test can drive them with an
   injected clock. A forward step past the limit fires. A backwards step
   is charged nothing, so it neither fires the budget early nor holds it
   off: the time that follows still counts. *)
let timeout_budget_clock () =
  let now = ref 0. in
  Fun.protect ~finally:(fun () -> Obs.set_clock None) @@ fun () ->
  Obs.set_clock (Some (fun () -> !now));
  let ms x = x *. 1e6 in
  let fires m =
    match Robust.check m ~gates:0 with
    | () -> false
    | exception Robust.Error (Robust.Budget_exceeded _) -> true
  in
  let budget = Robust.budget ~timeout_ms:10 () in
  let m = Robust.start budget in
  now := ms 5.;
  check_bool "5 ms in: within budget" false (fires m);
  now := ms 11.;
  check_bool "forward step past 10 ms fires" true (fires m);
  now := ms 1000.;
  let m = Robust.start budget in
  now := ms 1008.;
  check_bool "8 ms in: within budget" false (fires m);
  now := 0.;
  check_bool "1 s backwards step does not fire" false (fires m);
  now := ms 1.;
  check_bool "9 ms charged: within budget" false (fires m);
  now := ms 3.;
  check_bool "11 ms charged across the step: fires" true (fires m);
  (* end to end: a clock that runs 1 s per read times the compile out and
     degrades to the reference; one that steps back 1 s per read never
     does *)
  let inst = Db.Instance.of_graph (Graphs.Gen.triangulated_grid 3 3) in
  let weights = Db.Weights.bundle [] in
  let expr = count_expr triangle in
  let prepare step =
    Obs.set_clock (Some (fun () -> now := !now +. step; !now));
    unwrap "prepare under a timeout"
      (Engine.Eval.prepare_checked nat_ops ~tfa_rounds:1 ~budget inst weights expr)
  in
  (match Engine.Eval.degraded (prepare 1e9) with
  | Some (Robust.Budget_exceeded _) -> ()
  | _ -> Alcotest.fail "forward-running clock: expected a timeout degradation");
  check_bool "backward-running clock: compiled, not degraded" true
    (Engine.Eval.degraded (prepare (-1e9)) = None)

(* Degraded backends must answer open queries too, identically to the
   circuit path (acceptance: budget path = circuit path on queries). *)
let degraded_queries_agree () =
  let inst, _, weights = weighted_setup ~of_int:Fun.id (Graphs.Gen.grid 3 3) in
  (* deg(x) weighted by w: Σ_y [E(x,y)]·w(y), free variable x *)
  let expr =
    Logic.Expr.Sum
      ( [ "y" ],
        Logic.Expr.Mul
          [ Logic.Expr.Guard (e "x" "y"); Logic.Expr.Weight ("w", [ v "y" ]) ] )
  in
  let circuit =
    unwrap "circuit prepare"
      (Engine.Eval.prepare_checked nat_ops ~tfa_rounds:1 inst weights expr)
  in
  let degraded =
    unwrap "degraded prepare"
      (Engine.Eval.prepare_checked nat_ops ~tfa_rounds:1
         ~budget:(Robust.budget ~max_gates:1 ())
         inst weights expr)
  in
  check_bool "is degraded" true (Engine.Eval.degraded degraded <> None);
  for x = 0 to Db.Instance.n inst - 1 do
    check_int
      (Printf.sprintf "query %d agrees" x)
      (unwrap "circuit query" (Engine.Eval.query_checked circuit [ x ]))
      (unwrap "degraded query" (Engine.Eval.query_checked degraded [ x ]))
  done;
  (* updates hit the degraded backend through the shared weight bundle *)
  let () = unwrap "degraded update" (Engine.Eval.update_checked degraded "w" [ 0 ] 100) in
  let () = unwrap "circuit update" (Engine.Eval.update_checked circuit "w" [ 0 ] 100) in
  for x = 0 to Db.Instance.n inst - 1 do
    check_int
      (Printf.sprintf "query %d agrees after update" x)
      (unwrap "circuit query" (Engine.Eval.query_checked circuit [ x ]))
      (unwrap "degraded query" (Engine.Eval.query_checked degraded [ x ]))
  done

(* --- differential fuzzing: circuit pipeline vs reference evaluator --- *)

let differential_fuzz (type a) ~name (ops : a Intf.ops) ~of_int =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name ~count:25
       QCheck.(triple (int_range 0 1000) (int_range 2 14) (int_range 0 2))
       (fun (seed, n, which) ->
         let g =
           if seed mod 2 = 0 then Graphs.Gen.random_sparse ~seed ~n ~avg_deg:3
           else Graphs.Gen.random_bounded_degree ~seed ~n ~max_deg:3
         in
         let inst, _, weights = weighted_setup ~of_int g in
         let expr =
           match which with
           | 0 -> count_expr triangle
           | 1 -> count_expr path2
           | _ -> edge_weight_expr
         in
         let got = Engine.Eval.evaluate ops ~tfa_rounds:1 inst weights expr in
         let want = Engine.Reference.eval ops inst weights expr in
         ops.Intf.equal got want))

(* The prepared/dynamic path must track the reference under random update
   sequences (every semiring exercises a different Dyn strategy). *)
let dynamic_fuzz (type a) ~name (ops : a Intf.ops) ~of_int =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name ~count:20
       QCheck.(
         triple (int_range 0 1000) (int_range 2 12)
           (small_list (pair (int_range 0 11) (int_range 0 10))))
       (fun (seed, n, updates) ->
         let g = Graphs.Gen.random_sparse ~seed ~n ~avg_deg:3 in
         let inst, _, weights = weighted_setup ~of_int g in
         let ck =
           match
             Engine.Eval.prepare_checked ops ~tfa_rounds:1 inst weights edge_weight_expr
           with
           | Ok ck -> ck
           | Error e -> QCheck.Test.fail_reportf "prepare: %s" (Robust.to_string e)
         in
         List.for_all
           (fun (x, value) ->
             let x = x mod Db.Instance.n inst in
             (match Engine.Eval.update_checked ck "w" [ x ] (of_int value) with
             | Ok () -> ()
             | Error e -> QCheck.Test.fail_reportf "update: %s" (Robust.to_string e));
             let got =
               match Engine.Eval.value_checked ck with
               | Ok got -> got
               | Error e -> QCheck.Test.fail_reportf "value: %s" (Robust.to_string e)
             in
             ops.Intf.equal got
               (Engine.Reference.eval ops inst weights edge_weight_expr))
           updates))

(* --- fault injection: updates never leave silent corruption --- *)

let fault_rolls_back () =
  let inst, _, weights = weighted_setup ~of_int:Fun.id (Graphs.Gen.path 6) in
  let ck =
    unwrap "prepare"
      (Engine.Eval.prepare_checked nat_ops ~tfa_rounds:1 ~recover:`Fail inst weights
         edge_weight_expr)
  in
  let before = unwrap "initial value" (Engine.Eval.value_checked ck) in
  check_int "healthy update works" before
    (let () = unwrap "update" (Engine.Eval.update_checked ck "w" [ 0 ] 2) in
     let () = unwrap "restore" (Engine.Eval.update_checked ck "w" [ 0 ] 2) in
     unwrap "value" (Engine.Eval.value_checked ck));
  let pre_weight = Db.Weights.get (Db.Weights.find weights "w") [ 1 ] in
  Engine.Eval.set_fault_hook ck (Some (fun _ -> failwith "injected fault"));
  (match Engine.Eval.update_checked ck "w" [ 1 ] 9 with
  | Error (Robust.Internal_divergence _) -> ()
  | Error e -> Alcotest.failf "wrong classification: %s" (Robust.to_string e)
  | Ok () -> Alcotest.fail "faulted update must not report success");
  Engine.Eval.set_fault_hook ck None;
  (* the wave was rolled back: the circuit stays healthy on the pre-update
     state, and the weights store was never written (write-through happens
     only after the wave commits) *)
  check_int "weights store untouched" pre_weight
    (Db.Weights.get (Db.Weights.find weights "w") [ 1 ]);
  check_int "value rolled back" before (unwrap "value" (Engine.Eval.value_checked ck));
  unwrap "rolled-back circuit accepts updates" (Engine.Eval.update_checked ck "w" [ 1 ] 9);
  check_int "retried update lands"
    (Engine.Reference.eval nat_ops inst weights edge_weight_expr)
    (unwrap "value" (Engine.Eval.value_checked ck))

(* When the rollback itself faults the circuit is poisoned (every read
   fails loudly), and [`Repair] heals it mid-update: repair + retry makes
   the faulted update land. *)
let rollback_fault_poisons_and_repairs () =
  let inst, _, weights = weighted_setup ~of_int:Fun.id (Graphs.Gen.path 6) in
  (* `Fail policy first: poison and observe *)
  let ck =
    unwrap "prepare"
      (Engine.Eval.prepare_checked nat_ops ~tfa_rounds:1 ~recover:`Fail inst weights
         edge_weight_expr)
  in
  Engine.Eval.set_fault_hook ck (Some (fun _ -> failwith "injected fault"));
  Engine.Eval.set_rollback_fault_hook ck (Some (fun () -> failwith "rollback fault"));
  (match Engine.Eval.update_checked ck "w" [ 1 ] 9 with
  | Error (Robust.Internal_divergence _) -> ()
  | Error e -> Alcotest.failf "wrong classification: %s" (Robust.to_string e)
  | Ok () -> Alcotest.fail "faulted update must not report success");
  Engine.Eval.set_fault_hook ck None;
  Engine.Eval.set_rollback_fault_hook ck None;
  (match Engine.Eval.value_checked ck with
  | Error (Robust.Internal_divergence _) -> ()
  | Error e -> Alcotest.failf "wrong classification: %s" (Robust.to_string e)
  | Ok _ -> Alcotest.fail "poisoned circuit must not answer value");
  (* manual repair brings it back, agreeing with the (unwritten) weights *)
  Engine.Eval.repair_checked ck;
  (match Engine.Eval.update_checked ck "w" [ 1 ] 9 with
  | Ok () -> ()
  | Error e -> Alcotest.failf "post-repair update failed: %s" (Robust.to_string e));
  check_int "post-repair value"
    (Engine.Reference.eval nat_ops inst weights edge_weight_expr)
    (unwrap "value" (Engine.Eval.value_checked ck));
  (* `Repair policy: the same double fault self-heals inside the update *)
  let ck2 =
    unwrap "prepare"
      (Engine.Eval.prepare_checked nat_ops ~tfa_rounds:1 ~recover:`Repair ~retries:2
         inst weights edge_weight_expr)
  in
  Engine.Eval.set_retry_sleep (Some (fun _ -> ()));
  Fun.protect ~finally:(fun () -> Engine.Eval.set_retry_sleep None) @@ fun () ->
  let wave_faults = ref 0 and rb_faults = ref 0 in
  Engine.Eval.set_fault_hook ck2
    (Some
       (fun _ ->
         incr wave_faults;
         if !wave_faults = 1 then failwith "transient wave fault"));
  Engine.Eval.set_rollback_fault_hook ck2
    (Some
       (fun () ->
         incr rb_faults;
         if !rb_faults = 1 then failwith "transient rollback fault"));
  (match Engine.Eval.update_checked ck2 "w" [ 2 ] 7 with
  | Ok () -> ()
  | Error e -> Alcotest.failf "`Repair update failed: %s" (Robust.to_string e));
  check_int "self-healed value"
    (Engine.Reference.eval nat_ops inst weights edge_weight_expr)
    (unwrap "value" (Engine.Eval.value_checked ck2))

(* A point query is one read-only what-if wave: a fault anywhere inside
   it raises [Rolled_back] and leaves every gate value as it was and the
   structure healthy — even with the rollback hook sabotaged, since
   there is nothing to roll back. The checked query classifies the fault
   like a rolled-back update, and the next query answers as before. *)
let query_fault_leaves_structure () =
  let expr =
    Logic.Expr.Sum
      ( [ "y" ],
        Logic.Expr.Mul
          [ Logic.Expr.Guard (e "x" "y"); Logic.Expr.Weight ("w", [ v "y" ]) ] )
  in
  let inst, _, weights =
    weighted_setup ~of_int:Fun.id (Graphs.Gen.random_bounded_degree ~seed:1 ~n:64 ~max_deg:3)
  in
  let ev = Engine.Eval.prepare nat_ops inst weights expr in
  let d = ev.Engine.Eval.dyn in
  let before = Circuits.Dyn.value d in
  let x = List.find (fun x -> Engine.Eval.query ev [ x ] <> before) (List.init 64 Fun.id) in
  let answer = Engine.Eval.query ev [ x ] in
  let gates () = Array.init (Circuits.Dyn.num_gates d) (Circuits.Dyn.gate_value d) in
  let pre = gates () in
  let ticks = ref 0 in
  Circuits.Dyn.set_fault_hook d
    (Some
       (fun _ ->
         incr ticks;
         if !ticks = 2 then failwith "injected fault"));
  Circuits.Dyn.set_rollback_fault_hook d (Some (fun () -> failwith "rollback fault"));
  (match Engine.Eval.query ev [ x ] with
  | _ -> Alcotest.fail "a faulted query must raise"
  | exception Circuits.Dyn.Rolled_back _ -> ());
  check_bool "not poisoned" true (Circuits.Dyn.poisoned d = None);
  check_bool "every gate value unchanged" true (pre = gates ());
  check_int "value unchanged" before (Circuits.Dyn.value d);
  let ck =
    unwrap "prepare" (Engine.Eval.prepare_checked nat_ops ~recover:`Fail inst weights expr)
  in
  Engine.Eval.set_fault_hook ck (Some (fun _ -> failwith "injected fault"));
  (match Engine.Eval.query_checked ck [ x ] with
  | Error (Robust.Internal_divergence _) -> ()
  | Error err -> Alcotest.failf "wrong classification: %s" (Robust.to_string err)
  | Ok _ -> Alcotest.fail "a faulted checked query must not answer");
  Engine.Eval.set_fault_hook ck None;
  check_int "the checked query answers after the fault" answer
    (unwrap "query" (Engine.Eval.query_checked ck [ x ]));
  Circuits.Dyn.set_fault_hook d None;
  Circuits.Dyn.set_rollback_fault_hook d None;
  check_int "the query answers again" answer (Engine.Eval.query ev [ x ])

(* Fuzzed fault schedules: inject a fault after a random number of gate
   recomputations, run a random update sequence, and assert the new
   transactional invariant — every update either succeeds or rolls back,
   and in both cases the circuit keeps agreeing with the reference
   evaluator on the committed weights store (write-through only happens
   when the wave commits, so the two can never diverge). *)
let fault_schedule_fuzz =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"fault schedules: always consistent" ~count:30
       QCheck.(
         triple (int_range 0 1000) (int_range 1 25)
           (small_list (pair (int_range 0 11) (int_range 0 10))))
       (fun (seed, fuse, updates) ->
         let g = Graphs.Gen.random_sparse ~seed ~n:8 ~avg_deg:3 in
         let inst, _, weights = weighted_setup ~of_int:Fun.id g in
         let ck =
           match
             Engine.Eval.prepare_checked nat_ops ~tfa_rounds:1 ~recover:`Fail inst
               weights edge_weight_expr
           with
           | Ok ck -> ck
           | Error e -> QCheck.Test.fail_reportf "prepare: %s" (Robust.to_string e)
         in
         let ticks = ref 0 in
         Engine.Eval.set_fault_hook ck
           (Some
              (fun _ ->
                incr ticks;
                if !ticks >= fuse then failwith "scheduled fault"));
         List.for_all
           (fun (x, value) ->
             let x = x mod Db.Instance.n inst in
             let consistent label =
               match Engine.Eval.value_checked ck with
               | Ok got ->
                   if got = Engine.Reference.eval nat_ops inst weights edge_weight_expr
                   then true
                   else QCheck.Test.fail_reportf "%s: circuit diverged from reference" label
               | Error e ->
                   QCheck.Test.fail_reportf "%s value: %s" label (Robust.to_string e)
             in
             match Engine.Eval.update_checked ck "w" [ x ] value with
             | Ok () -> consistent "after committed update"
             | Error (Robust.Internal_divergence _) -> consistent "after rolled-back update"
             | Error e ->
                 QCheck.Test.fail_reportf "wrong classification: %s" (Robust.to_string e))
           updates))

(* --- batched checked updates: write-through + one wave + self-check --- *)

let batched_checked_updates () =
  let inst, _, weights = weighted_setup ~of_int:Fun.id (Graphs.Gen.grid 3 3) in
  let ck =
    unwrap "prepare"
      (Engine.Eval.prepare_checked nat_ops ~tfa_rounds:1 ~self_check:true inst weights
         edge_weight_expr)
  in
  (* duplicate targets in one batch: later write wins, like sequential *)
  let () =
    unwrap "update_many"
      (Engine.Eval.update_many_checked ck [ ("w", [ 0 ], 9); ("w", [ 1 ], 3); ("w", [ 0 ], 4) ])
  in
  check_int "batched checked value"
    (Engine.Reference.eval nat_ops inst weights edge_weight_expr)
    (unwrap "value" (Engine.Eval.value_checked ck));
  (* unknown symbols in a batch are Bad_input, reported not raised *)
  match Engine.Eval.update_many_checked ck [ ("nope", [ 0 ], 1) ] with
  | Error (Robust.Bad_input _) -> ()
  | Error e -> Alcotest.failf "wrong classification: %s" (Robust.to_string e)
  | Ok () -> Alcotest.fail "unknown weight symbol in batch must be Bad_input"

(* A rejected single write leaves no trace: a tuple of the wrong arity is
   refused before the circuit, the table of unread weights or the journal
   sees it. *)
let rejected_update_changes_nothing () =
  let inst, _, weights = weighted_setup ~of_int:Fun.id (Graphs.Gen.grid 3 3) in
  let ck =
    unwrap "prepare"
      (Engine.Eval.prepare_checked nat_ops ~tfa_rounds:1 inst weights edge_weight_expr)
  in
  let t =
    match ck.Engine.Eval.backend with
    | Engine.Eval.Circuit t -> t
    | Engine.Eval.Degraded _ -> Alcotest.fail "expected the circuit backend"
  in
  let j = Engine.Eval.enable_journal t in
  let v0 = unwrap "value" (Engine.Eval.value_checked ck) in
  (match Engine.Eval.update_checked ck "w" [ 0; 1 ] 9 with
  | Error (Robust.Bad_input _) -> ()
  | Error e -> Alcotest.failf "wrong classification: %s" (Robust.to_string e)
  | Ok () -> Alcotest.fail "a wrong-arity write must be Bad_input");
  check_int "journal length unchanged" 0 (Circuits.Journal.length j);
  check_int "no unread weight recorded" 0 (Hashtbl.length t.Engine.Eval.unread);
  check_int "value unchanged" v0 (unwrap "value after" (Engine.Eval.value_checked ck));
  check_int "matches the reference" v0
    (Engine.Reference.eval nat_ops inst weights edge_weight_expr)

(* --- self-check: circuit cross-validated against the reference --- *)

let self_check_divergence () =
  let inst, w, weights = weighted_setup ~of_int:Fun.id (Graphs.Gen.grid 3 3) in
  let ck =
    unwrap "prepare with self-check"
      (Engine.Eval.prepare_checked nat_ops ~tfa_rounds:1 ~self_check:true inst weights
         edge_weight_expr)
  in
  let v0 = unwrap "self-checked value" (Engine.Eval.value_checked ck) in
  (* write-through updates keep the circuit and the reference in sync *)
  let () = unwrap "checked update" (Engine.Eval.update_checked ck "w" [ 0 ] 9) in
  let v1 = unwrap "value after update" (Engine.Eval.value_checked ck) in
  check_bool "update changed the value" true (v0 <> v1);
  (* mutating the weights behind the circuit's back makes the two disagree:
     the self-check must catch it and report Internal_divergence *)
  Db.Weights.set w [ 0 ] 1000;
  (match Engine.Eval.value_checked ck with
  | Error (Robust.Internal_divergence _) -> ()
  | Error e -> Alcotest.failf "wrong classification: %s" (Robust.to_string e)
  | Ok _ -> Alcotest.fail "self-check missed the divergence");
  (* restoring consistency through the checked API heals it *)
  let () = unwrap "healing update" (Engine.Eval.update_checked ck "w" [ 0 ] 9) in
  check_int "healed" v1 (unwrap "value" (Engine.Eval.value_checked ck))

let self_check_open_query () =
  let inst, w, weights = weighted_setup ~of_int:Fun.id (Graphs.Gen.grid 3 3) in
  let expr =
    Logic.Expr.Sum
      ( [ "y" ],
        Logic.Expr.Mul
          [ Logic.Expr.Guard (e "x" "y"); Logic.Expr.Weight ("w", [ v "y" ]) ] )
  in
  let ck =
    unwrap "prepare"
      (Engine.Eval.prepare_checked nat_ops ~tfa_rounds:1 ~self_check:true inst weights
         expr)
  in
  check_int "query 0"
    (Engine.Reference.eval nat_ops inst weights ~env:[ ("x", 0) ] expr)
    (unwrap "query_checked" (Engine.Eval.query_checked ck [ 0 ]));
  Db.Weights.set w [ 1 ] 1000;
  match Engine.Eval.query_checked ck [ 0 ] with
  | Error (Robust.Internal_divergence _) -> ()
  | Error e -> Alcotest.failf "wrong classification: %s" (Robust.to_string e)
  | Ok _ -> Alcotest.fail "open-query self-check missed the divergence"

(* --- classification across the engine surfaces --- *)

let classification_surfaces () =
  let inst = Db.Instance.of_graph (Graphs.Gen.grid 3 3) in
  (* unknown weight symbol → Bad_input (not degradable, so no fallback) *)
  (match
     Engine.Eval.prepare_checked nat_ops ~tfa_rounds:1 inst (Db.Weights.bundle [])
       (Logic.Expr.Sum
          ( [ "x"; "y" ],
            Logic.Expr.Mul
              [ Logic.Expr.Guard (e "x" "y"); Logic.Expr.Weight ("nope", [ v "x" ]) ] ))
   with
  | Error (Robust.Bad_input _) -> ()
  | Error e -> Alcotest.failf "wrong classification: %s" (Robust.to_string e)
  | Ok _ -> Alcotest.fail "unknown weight symbol must be Bad_input");
  (* a quantified subformula with two free variables is outside the
     supported enumeration fragment *)
  (match
     Fo_enum.prepare_checked inst
       (Logic.Formula.Exists
          ("y", Logic.Formula.And [ e "x" "y"; e "y" "w" ]))
   with
  | Error (Robust.Unsupported_fragment _) -> ()
  | Error e -> Alcotest.failf "wrong classification: %s" (Robust.to_string e)
  | Ok _ -> Alcotest.fail "expected Unsupported_fragment from Fo_enum");
  (* a supported query still prepares fine through the checked surface *)
  let t = unwrap "fo_enum" (Fo_enum.prepare_checked inst triangle) in
  let _, want = Engine.Reference.answers inst triangle in
  check_int "checked enum agrees with reference" (List.length want)
    (List.length (Fo_enum.answers t));
  (* nested queries: type errors come back as Ill_typed *)
  let st = Nested.make_structure inst [] in
  (match Nested.eval_checked st (Nested.Add []) with
  | Error (Robust.Ill_typed _) -> ()
  | Error e -> Alcotest.failf "wrong classification: %s" (Robust.to_string e)
  | Ok _ -> Alcotest.fail "empty connective must be Ill_typed");
  (* nested queries: budgets thread through to Budget_exceeded *)
  match
    Nested.eval_checked
      ~budget:(Robust.budget ~max_gates:1 ())
      st
      (Nested.Sum
         ( [ "x"; "y" ],
           Nested.Iverson (Nested.Brel ("E", [ v "x"; v "y" ]), Value.nat_sr) ))
  with
  | Error (Robust.Budget_exceeded _) -> ()
  | Error e -> Alcotest.failf "wrong classification: %s" (Robust.to_string e)
  | Ok _ -> Alcotest.fail "expected Budget_exceeded through Nested.eval_checked"

(* Nullary symbols are outside the compiled fragment: [prepare] refuses
   them as unsupported, and the checked entry points serve the reference
   evaluator, which gives the right value. An empty nullary relation and
   a nullary weight [c() = 5] on a 3x3 grid, closed on their own and
   under a sum over the edges. *)
let nullary_symbols_degrade () =
  let inst =
    Db.Instance.of_graph
      ~schema:(Db.Schema.add_rel Db.Schema.graph_schema ("R", 0))
      (Graphs.Gen.grid 3 3)
  in
  let c = Db.Weights.create ~name:"c" ~arity:0 ~zero:0 in
  Db.Weights.set c [] 5;
  let weights = Db.Weights.bundle [ c ] in
  let r = Logic.Formula.Rel ("R", []) and cw = Logic.Expr.Weight ("c", []) in
  List.iter
    (fun (name, expr) ->
      let want = Engine.Reference.eval nat_ops inst weights expr in
      (match Engine.Eval.evaluate_checked nat_ops inst weights expr with
      | Ok (got, Some (Robust.Unsupported_fragment _)) ->
          check_int (name ^ ": evaluate_checked") want got
      | Ok (_, None) -> Alcotest.failf "%s: compiled a nullary symbol" name
      | Ok (_, Some e) | Error e -> Alcotest.failf "%s: %s" name (Robust.to_string e));
      (match Engine.Eval.prepare_checked nat_ops inst weights expr with
      | Ok ck -> (
          check_bool (name ^ ": prepare_checked degraded") true
            (Engine.Eval.degraded ck <> None);
          match Engine.Eval.value_checked ck with
          | Ok got -> check_int (name ^ ": prepare_checked value") want got
          | Error e -> Alcotest.failf "%s: %s" name (Robust.to_string e))
      | Error e -> Alcotest.failf "%s: %s" name (Robust.to_string e));
      match Engine.Eval.prepare nat_ops inst weights expr with
      | _ -> Alcotest.failf "%s: prepare accepted a nullary symbol" name
      | exception Robust.Error (Robust.Unsupported_fragment _) -> ())
    [
      ("c()", cw);
      ("[R()]", Logic.Expr.Guard r);
      ( "sum [E(x,y) & R()]",
        Logic.Expr.Sum ([ "x"; "y" ], Logic.Expr.Guard (Logic.Formula.And [ e "x" "y"; r ])) );
      ( "sum [E(x,y)] c()",
        Logic.Expr.Sum ([ "x"; "y" ], Logic.Expr.Mul [ Logic.Expr.Guard (e "x" "y"); cw ]) );
    ]

let suite =
  [
    Alcotest.test_case "error taxonomy" `Quick taxonomy;
    Alcotest.test_case "budgets degrade to reference" `Quick budget_degrades;
    Alcotest.test_case "timeout budget under an injected clock" `Quick timeout_budget_clock;
    Alcotest.test_case "degraded queries agree with circuit" `Quick degraded_queries_agree;
    differential_fuzz ~name:"differential: nat semiring (General)" nat_ops
      ~of_int:(fun i -> i);
    differential_fuzz ~name:"differential: int ring (Ring)" int_ops ~of_int:(fun i -> i);
    differential_fuzz ~name:"differential: Z/4Z (Finite)" z4_ops ~of_int:Z4.of_int;
    dynamic_fuzz ~name:"dynamic updates track reference: nat" nat_ops ~of_int:(fun i -> i);
    dynamic_fuzz ~name:"dynamic updates track reference: int ring" int_ops
      ~of_int:(fun i -> i);
    dynamic_fuzz ~name:"dynamic updates track reference: Z/4Z" z4_ops ~of_int:Z4.of_int;
    Alcotest.test_case "fault rolls the wave back" `Quick fault_rolls_back;
    Alcotest.test_case "rollback fault poisons, repair heals" `Quick
      rollback_fault_poisons_and_repairs;
    Alcotest.test_case "faulted query raises Rolled_back, values unchanged, healthy" `Quick
      query_fault_leaves_structure;
    fault_schedule_fuzz;
    Alcotest.test_case "batched checked updates" `Quick batched_checked_updates;
    Alcotest.test_case "rejected single update changes nothing" `Quick
      rejected_update_changes_nothing;
    Alcotest.test_case "self-check catches divergence" `Quick self_check_divergence;
    Alcotest.test_case "self-check on open queries" `Quick self_check_open_query;
    Alcotest.test_case "classification across surfaces" `Quick classification_surfaces;
    Alcotest.test_case "nullary symbols degrade to reference" `Quick nullary_symbols_degrade;
  ]
