(* Tests for circuits with permanent gates: static evaluation, statistics,
   and the three dynamic-update strategies of Section 4 (which must all
   track a from-scratch re-evaluation). *)

open Semiring

let nat_ops = Intf.ops_of_module (module Instances.Nat)
let int_ops = Intf.ops_of_ring (module Instances.Int_ring)
let bool_ops = Intf.ops_of_finite (module Instances.Bool)
let trop_ops = Intf.ops_of_module (module Tropical.Min_plus)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* (w(1) + w(2)) * (w(3) + c5): a tiny circuit with shared structure *)
let small_circuit () =
  let b = Circuits.Circuit.builder () in
  let w i = Circuits.Circuit.input b ("w", [ i ]) in
  let s1 = Circuits.Circuit.add b [ w 1; w 2 ] in
  let c5 = Circuits.Circuit.const b 5 in
  let s2 = Circuits.Circuit.add b [ w 3; c5 ] in
  let out = Circuits.Circuit.mul b [ s1; s2 ] in
  Circuits.Circuit.finish b ~output:out

let eval_small () =
  let c = small_circuit () in
  let v = function
    | "w", [ i ] -> i * 10
    | _ -> 0
  in
  check_int "((10+20)*(30+5))" ((10 + 20) * (30 + 5)) (Circuits.Circuit.eval nat_ops c v)

let input_hash_consing () =
  let b = Circuits.Circuit.builder () in
  let g1 = Circuits.Circuit.input b ("w", [ 1 ]) in
  let g2 = Circuits.Circuit.input b ("w", [ 1 ]) in
  check_int "same gate" g1 g2;
  let g3 = Circuits.Circuit.input b ("w", [ 2 ]) in
  check_bool "different tuple different gate" true (g1 <> g3)

let perm_gate_eval () =
  (* permanent of [[w1 w2][w3 w4]] = w1 w4 + w2 w3 *)
  let b = Circuits.Circuit.builder () in
  let w i = Circuits.Circuit.input b ("w", [ i ]) in
  let p = Circuits.Circuit.perm b [| [| w 1; w 2 |]; [| w 3; w 4 |] |] in
  let c = Circuits.Circuit.finish b ~output:p in
  let v = function "w", [ i ] -> i | _ -> 0 in
  check_int "perm" ((1 * 4) + (2 * 3)) (Circuits.Circuit.eval nat_ops c v)

let stats_small () =
  let c = small_circuit () in
  let s = Circuits.Circuit.stats c in
  check_int "gates" 7 s.Circuits.Circuit.gates;
  check_int "inputs" 3 s.Circuits.Circuit.num_inputs;
  check_int "depth" 2 s.Circuits.Circuit.depth;
  check_int "no perm gates" 0 s.Circuits.Circuit.num_perm

(* a medium random circuit whose dynamic value must track re-evaluation *)
let random_circuit seed n_inputs =
  let rng = Graphs.Rand.create seed in
  let b = Circuits.Circuit.builder () in
  let inputs = List.init n_inputs (fun i -> Circuits.Circuit.input b ("w", [ i ])) in
  let pool = ref (Array.of_list inputs) in
  let pick () = !pool.(Graphs.Rand.int rng (Array.length !pool)) in
  for _ = 1 to 12 do
    let kind = Graphs.Rand.int rng 3 in
    let g =
      match kind with
      | 0 -> Circuits.Circuit.add b [ pick (); pick (); pick () ]
      | 1 -> Circuits.Circuit.mul b [ pick (); pick () ]
      | _ ->
          Circuits.Circuit.perm b
            [| [| pick (); pick (); pick () |]; [| pick (); pick (); pick () |] |]
    in
    pool := Array.append !pool [| g |]
  done;
  let out = Circuits.Circuit.add b (Array.to_list !pool) in
  Circuits.Circuit.finish b ~output:out

let dyn_tracks_reeval mode ops name =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name ~count:30
       QCheck.(
         pair (int_range 0 1000)
           (small_list (pair (int_range 0 7) (int_range 0 3))))
       (fun (seed, updates) ->
         let c = random_circuit seed 8 in
         let vals = Array.make 8 1 in
         let d = Circuits.Dyn.create ~mode ops c (function "w", [ i ] -> vals.(i) | _ -> 0) in
         List.for_all
           (fun (i, v) ->
             vals.(i) <- v;
             Circuits.Dyn.set_input d ("w", [ i ]) v;
             let expected =
               Circuits.Circuit.eval ops c (function "w", [ j ] -> vals.(j) | _ -> 0)
             in
             Circuits.Dyn.value d = expected)
           updates))

let dyn_bool () =
  (* boolean circuit: perm gate = matching existence *)
  let b = Circuits.Circuit.builder () in
  let w i = Circuits.Circuit.input b ("w", [ i ]) in
  let p = Circuits.Circuit.perm b [| [| w 0; w 1 |]; [| w 2; w 3 |] |] in
  let c = Circuits.Circuit.finish b ~output:p in
  let vals = [| true; false; false; true |] in
  let d = Circuits.Dyn.create bool_ops c (function "w", [ i ] -> vals.(i) | _ -> false) in
  check_bool "initial true" true (Circuits.Dyn.value d);
  Circuits.Dyn.set_input d ("w", [ 0 ]) false;
  check_bool "broken diagonal still has other" false (Circuits.Dyn.value d);
  Circuits.Dyn.set_input d ("w", [ 1 ]) true;
  Circuits.Dyn.set_input d ("w", [ 2 ]) true;
  check_bool "anti-diagonal" true (Circuits.Dyn.value d)

let dyn_tropical () =
  (* min-plus: value is min-cost assignment; log-update mode *)
  let b = Circuits.Circuit.builder () in
  let w i = Circuits.Circuit.input b ("w", [ i ]) in
  let p = Circuits.Circuit.perm b [| [| w 0; w 1 |]; [| w 2; w 3 |] |] in
  let c = Circuits.Circuit.finish b ~output:p in
  let open Instances in
  let vals = [| Fin 5; Fin 1; Fin 2; Fin 8 |] in
  let d = Circuits.Dyn.create trop_ops c (function "w", [ i ] -> vals.(i) | _ -> Inf) in
  check_bool "min(5+8, 1+2) = 3" true (equal_extended (Fin 3) (Circuits.Dyn.value d));
  Circuits.Dyn.set_input d ("w", [ 1 ]) (Fin 100);
  check_bool "now 13" true (equal_extended (Fin 13) (Circuits.Dyn.value d))

(* with_temp is a what-if: the temporary value is read inside [f], but
   the committed gate values are never written, and a write inside [f]
   is refused *)
let with_temp_writes_nothing () =
  let c = small_circuit () in
  let d = Circuits.Dyn.create ~mode:Circuits.Dyn.Ring int_ops c (function "w", [ i ] -> i | _ -> 0) in
  let before = Circuits.Dyn.value d in
  let committed = Array.copy d.Circuits.Dyn.values in
  let inside =
    Circuits.Dyn.with_temp d [ (("w", [ 1 ]), 100) ] (fun () ->
        check_bool "committed values unwritten inside f" true (committed = d.Circuits.Dyn.values);
        check_int "input reads its what-if value" 100
          (Option.get (Circuits.Dyn.input_value d ("w", [ 1 ])));
        (match Circuits.Dyn.set_input d ("w", [ 2 ]) 7 with
        | () -> Alcotest.fail "a write inside with_temp must be refused"
        | exception Invalid_argument _ -> ());
        Circuits.Dyn.value d)
  in
  check_int "temp changes value" ((100 + 2) * (3 + 5)) inside;
  check_int "value after" before (Circuits.Dyn.value d);
  check_bool "committed values unwritten after" true (committed = d.Circuits.Dyn.values)

exception Boom

(* a raising [f] leaves nothing behind either: the overlay closes on
   every exit *)
let with_temp_exception_writes_nothing () =
  let c = small_circuit () in
  let d =
    Circuits.Dyn.create ~mode:Circuits.Dyn.Ring int_ops c (function "w", [ i ] -> i | _ -> 0)
  in
  let before = Circuits.Dyn.value d in
  let committed = Array.copy d.Circuits.Dyn.values in
  (match
     Circuits.Dyn.with_temp d
       [ (("w", [ 1 ]), 100); (("w", [ 3 ]), 50) ]
       (fun () ->
         check_bool "committed values unwritten inside f" true
           (committed = d.Circuits.Dyn.values);
         raise Boom)
   with
  | _ -> Alcotest.fail "with_temp swallowed the exception"
  | exception Boom -> ());
  check_bool "not poisoned" true (Circuits.Dyn.poisoned d = None);
  check_int "w1 unchanged" 1 (Option.get (Circuits.Dyn.input_value d ("w", [ 1 ])));
  check_int "w3 unchanged" 3 (Option.get (Circuits.Dyn.input_value d ("w", [ 3 ])));
  check_int "value unchanged after raise" before (Circuits.Dyn.value d);
  check_bool "committed values unwritten after" true (committed = d.Circuits.Dyn.values);
  Circuits.Dyn.set_input d ("w", [ 2 ]) 7;
  check_int "writes land after the what-if" ((1 + 7) * (3 + 5)) (Circuits.Dyn.value d)

(* one set_inputs wave per batch must equal both sequential set_input
   application and a from-scratch re-evaluation, in every mode *)
let batch_matches_sequential mode ops name =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name ~count:30
       QCheck.(
         pair (int_range 0 1000)
           (small_list (small_list (pair (int_range 0 7) (int_range 0 3)))))
       (fun (seed, batches) ->
         let c = random_circuit seed 8 in
         let vals = Array.make 8 1 in
         let valuation = function "w", [ i ] -> vals.(i) | _ -> 0 in
         let d_batch = Circuits.Dyn.create ~mode ops c valuation in
         let d_seq = Circuits.Dyn.create ~mode ops c valuation in
         List.for_all
           (fun batch ->
             let assignments = List.map (fun (i, v) -> (("w", [ i ]), v)) batch in
             List.iter (fun (i, v) -> vals.(i) <- v) batch;
             Circuits.Dyn.set_inputs d_batch assignments;
             List.iter (fun (key, v) -> Circuits.Dyn.set_input d_seq key v) assignments;
             let expected =
               Circuits.Circuit.eval ops c (function "w", [ j ] -> vals.(j) | _ -> 0)
             in
             Circuits.Dyn.value d_batch = expected && Circuits.Dyn.value d_seq = expected)
           batches))

(* a fault in the middle of a batch wave must roll the whole batch back:
   the batch raises Rolled_back, the structure stays healthy with its
   pre-batch values, and the batch can simply be re-applied *)
let fault_mid_batch_rolls_back () =
  let c = small_circuit () in
  let valuation = function "w", [ i ] -> i | _ -> 0 in
  let d = Circuits.Dyn.create ~mode:Circuits.Dyn.General nat_ops c valuation in
  let before = Circuits.Dyn.value d in
  let calls = ref 0 in
  Circuits.Dyn.set_fault_hook d
    (Some
       (fun _ ->
         incr calls;
         if !calls = 2 then failwith "mid-batch fault"));
  (match Circuits.Dyn.set_inputs d [ (("w", [ 1 ]), 50); (("w", [ 3 ]), 60) ] with
  | () -> Alcotest.fail "faulted batch must not return normally"
  | exception Circuits.Dyn.Rolled_back _ -> ());
  Circuits.Dyn.set_fault_hook d None;
  check_bool "not poisoned" true (Circuits.Dyn.poisoned d = None);
  check_int "value rolled back" before (Circuits.Dyn.value d);
  check_int "w1 rolled back" 1 (Option.get (Circuits.Dyn.input_value d ("w", [ 1 ])));
  check_int "w3 rolled back" 3 (Option.get (Circuits.Dyn.input_value d ("w", [ 3 ])));
  (* the rolled-back batch applies cleanly on a retry *)
  Circuits.Dyn.set_inputs d [ (("w", [ 1 ]), 50); (("w", [ 3 ]), 60) ];
  check_int "retried batch lands"
    (Circuits.Circuit.eval nat_ops c (function "w", [ 1 ] -> 50 | "w", [ 3 ] -> 60 | k -> valuation k))
    (Circuits.Dyn.value d)

(* when the rollback itself faults, poisoning remains the last resort —
   and repair rebuilds the state from the stored inputs, clearing it *)
let rollback_fault_poisons_then_repair () =
  let c = small_circuit () in
  let valuation = function "w", [ i ] -> i | _ -> 0 in
  let d = Circuits.Dyn.create ~mode:Circuits.Dyn.General nat_ops c valuation in
  let calls = ref 0 in
  Circuits.Dyn.set_fault_hook d
    (Some
       (fun _ ->
         incr calls;
         if !calls = 2 then failwith "mid-batch fault"));
  Circuits.Dyn.set_rollback_fault_hook d (Some (fun () -> failwith "rollback fault"));
  (match Circuits.Dyn.set_inputs d [ (("w", [ 1 ]), 50); (("w", [ 3 ]), 60) ] with
  | () -> Alcotest.fail "faulted batch must not return normally"
  | exception Failure _ -> ());
  Circuits.Dyn.set_fault_hook d None;
  Circuits.Dyn.set_rollback_fault_hook d None;
  check_bool "poisoned" true (Circuits.Dyn.poisoned d <> None);
  (match Circuits.Dyn.value d with
  | _ -> Alcotest.fail "poisoned circuit answered value"
  | exception Circuits.Dyn.Poisoned _ -> ());
  (match Circuits.Dyn.set_input d ("w", [ 2 ]) 9 with
  | () -> Alcotest.fail "poisoned circuit accepted an update"
  | exception Circuits.Dyn.Poisoned _ -> ());
  (* repair: one full-eval pass from the stored inputs clears the poison
     and the structure agrees with a fresh evaluation of those inputs *)
  Circuits.Dyn.repair d;
  check_bool "repair clears poison" true (Circuits.Dyn.poisoned d = None);
  let current key = Option.value ~default:0 (Circuits.Dyn.input_value d key) in
  check_int "repaired value" (Circuits.Circuit.eval nat_ops c current) (Circuits.Dyn.value d);
  (* and the structure is dynamic again *)
  Circuits.Dyn.set_input d ("w", [ 2 ]) 9;
  check_int "post-repair update"
    (Circuits.Circuit.eval nat_ops c (function "w", [ 2 ] -> 9 | k -> current k))
    (Circuits.Dyn.value d)

(* permanent gates are k × n matrices; ragged rows must be rejected at
   construction with a structured error, not fail later in the strategies *)
let ragged_perm_rejected () =
  let b = Circuits.Circuit.builder () in
  let w i = Circuits.Circuit.input b ("w", [ i ]) in
  match Circuits.Circuit.perm b [| [| w 0; w 1 |]; [| w 2 |] |] with
  | _ -> Alcotest.fail "ragged permanent gate accepted"
  | exception Robust.Error (Robust.Bad_input _) -> ()

let balance_preserves_value () =
  let c = random_circuit 42 8 in
  let v = function "w", [ i ] -> i + 1 | _ -> 0 in
  let balanced = (Opt.run ~zero:0 ~one:1 c).Opt.circuit in
  check_int "balanced value" (Circuits.Circuit.eval nat_ops c v) (Circuits.Circuit.eval nat_ops balanced v);
  let s = Circuits.Circuit.stats balanced in
  check_bool "fan-in capped after balancing" true
    (s.Circuits.Circuit.max_fan_in <= Opt.balance_cap)

(* --- builder / finish validation of the topological-order invariant --- *)

let builder_rejects_bad_children () =
  let b = Circuits.Circuit.builder () in
  let w0 = Circuits.Circuit.input b ("w", [ 0 ]) in
  (match Circuits.Circuit.add b [ w0; 7 ] with
  | _ -> Alcotest.fail "out-of-range add child accepted"
  | exception Robust.Error (Robust.Bad_input _) -> ());
  (match Circuits.Circuit.mul b [ -1 ] with
  | _ -> Alcotest.fail "negative mul child accepted"
  | exception Robust.Error (Robust.Bad_input _) -> ());
  match Circuits.Circuit.perm b [| [| w0; 42 |]; [| w0; w0 |] |] with
  | _ -> Alcotest.fail "out-of-range perm entry accepted"
  | exception Robust.Error (Robust.Bad_input _) -> ()

let finish_rejects_forward_reference () =
  (* raw [push] bypasses the builder-side checks; [finish] must still
     catch a gate whose child id is not strictly smaller than its own *)
  let b = Circuits.Circuit.builder () in
  let _w0 = Circuits.Circuit.input b ("w", [ 0 ]) in
  let _fwd = Circuits.Circuit.push b (Circuits.Circuit.Add [| 2 |]) in
  let out = Circuits.Circuit.const b 1 in
  (match Circuits.Circuit.finish b ~output:out with
  | _ -> Alcotest.fail "forward-referencing gate accepted"
  | exception Robust.Error (Robust.Bad_input _) -> ());
  let b = Circuits.Circuit.builder () in
  let _self = Circuits.Circuit.push b (Circuits.Circuit.Mul [| 0 |]) in
  (match Circuits.Circuit.finish b ~output:0 with
  | _ -> Alcotest.fail "self-referencing gate accepted"
  | exception Robust.Error (Robust.Bad_input _) -> ());
  let b = Circuits.Circuit.builder () in
  let _w0 = Circuits.Circuit.input b ("w", [ 0 ]) in
  match Circuits.Circuit.finish b ~output:99 with
  | _ -> Alcotest.fail "out-of-range output accepted"
  | exception Robust.Error (Robust.Bad_input _) -> ()

let stats_dead_gates () =
  let c = small_circuit () in
  check_int "fully live circuit" 0 (Circuits.Circuit.stats c).Circuits.Circuit.dead_gates;
  let b = Circuits.Circuit.builder () in
  let w0 = Circuits.Circuit.input b ("w", [ 0 ]) in
  let w9 = Circuits.Circuit.input b ("w", [ 9 ]) in
  let _dead = Circuits.Circuit.add b [ w9; w9 ] in
  let out = Circuits.Circuit.mul b [ w0; w0 ] in
  let c = Circuits.Circuit.finish b ~output:out in
  (* w9 and the add over it are outside the output cone *)
  check_int "dead cone counted" 2 (Circuits.Circuit.stats c).Circuits.Circuit.dead_gates

(* the empty-gate conventions the optimizer relies on: Add [||] is the
   semiring zero, Mul [||] is the semiring one — checked in nat, where
   0/1 are the literal ints, and in min-plus, where they are Inf / Fin 0 *)
let empty_gate_conventions () =
  let empty node =
    let b = Circuits.Circuit.builder () in
    let g = Circuits.Circuit.push b node in
    Circuits.Circuit.finish b ~output:g
  in
  let v _ = Alcotest.fail "no inputs to read" in
  check_int "Add [||] = 0 (nat)" 0 (Circuits.Circuit.eval nat_ops (empty (Circuits.Circuit.Add [||])) v);
  check_int "Mul [||] = 1 (nat)" 1 (Circuits.Circuit.eval nat_ops (empty (Circuits.Circuit.Mul [||])) v);
  let is_inf = function Instances.Inf -> true | _ -> false in
  check_bool "Add [||] = Inf (min-plus)" true
    (is_inf (Circuits.Circuit.eval trop_ops (empty (Circuits.Circuit.Add [||])) v));
  check_bool "Mul [||] = Fin 0 (min-plus)" true
    (Circuits.Circuit.eval trop_ops (empty (Circuits.Circuit.Mul [||])) v = Instances.Fin 0)

let suite =
  [
    Alcotest.test_case "static eval" `Quick eval_small;
    Alcotest.test_case "input hash-consing" `Quick input_hash_consing;
    Alcotest.test_case "perm gate eval" `Quick perm_gate_eval;
    Alcotest.test_case "stats" `Quick stats_small;
    Alcotest.test_case "builder rejects bad children" `Quick builder_rejects_bad_children;
    Alcotest.test_case "finish rejects forward references" `Quick finish_rejects_forward_reference;
    Alcotest.test_case "stats counts dead gates" `Quick stats_dead_gates;
    Alcotest.test_case "empty gate conventions" `Quick empty_gate_conventions;
    dyn_tracks_reeval Circuits.Dyn.General nat_ops "dyn general tracks re-eval";
    dyn_tracks_reeval Circuits.Dyn.Ring int_ops "dyn ring tracks re-eval";
    dyn_tracks_reeval Circuits.Dyn.Finite
      (Intf.ops_of_finite (module Zmod.Z4))
      "dyn finite (Z4) tracks re-eval";
    Alcotest.test_case "dyn boolean perm" `Quick dyn_bool;
    Alcotest.test_case "dyn tropical perm" `Quick dyn_tropical;
    Alcotest.test_case "with_temp writes nothing" `Quick with_temp_writes_nothing;
    Alcotest.test_case "with_temp writes nothing when f raises" `Quick
      with_temp_exception_writes_nothing;
    batch_matches_sequential Circuits.Dyn.General nat_ops "set_inputs = sequential (general)";
    batch_matches_sequential Circuits.Dyn.Ring int_ops "set_inputs = sequential (ring)";
    batch_matches_sequential Circuits.Dyn.Finite
      (Intf.ops_of_finite (module Zmod.Z4))
      "set_inputs = sequential (finite Z4)";
    Alcotest.test_case "fault mid-batch rolls back" `Quick fault_mid_batch_rolls_back;
    Alcotest.test_case "rollback fault poisons, repair heals" `Quick
      rollback_fault_poisons_then_repair;
    Alcotest.test_case "ragged perm rejected" `Quick ragged_perm_rejected;
    Alcotest.test_case "balance preserves value" `Quick balance_preserves_value;
  ]
