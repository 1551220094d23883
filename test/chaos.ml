(* Chaos harness for the transactional update path (standalone test
   executable, also run in CI).

   For every update strategy (General/nat, Ring/int, Finite/Z4) and all
   three update shapes (single [update_checked], batched
   [update_many_checked], structural [insert_tuple_checked] — the
   localized-recompile + splice wave) it first counts the fault positions
   of one wave — every gate recomputation the wave performs — then injects a crash at {e each}
   position in turn and drives all three recovery policies:

   - [`Fail]     the update reports [Internal_divergence], the circuit
                 rolls back, and both circuit and weights store still agree
                 with the pre-wave reference evaluation (never a silent
                 third state); a clean retry then lands the update;
   - [`Rollback] a transient (one-shot) fault is absorbed by the bounded
                 retry loop: the update reports success and the circuit
                 agrees with the post-wave reference evaluation;
   - [`Repair]   the fault's rollback is {e also} sabotaged, poisoning the
                 structure; the policy repairs it in place, retries, and
                 the update still reports success with post-wave agreement.

   A fourth shape, the point query [query_checked], is one read-only
   what-if wave: a fault at each of its positions must report
   [Internal_divergence] without running a rollback, and leave the
   committed value (zero: every query weight is zero) and every point's
   query agreeing with the reference.

   Exits nonzero on any violation. *)

open Semiring

module Z4 = Zmod.Make (struct
  let modulus = 4
end)

let nat_ops = Intf.ops_of_module (module Instances.Nat)
let int_ops = Intf.ops_of_ring (module Instances.Int_ring)
let z4_ops = { (Intf.ops_of_finite (module Z4)) with Intf.neg = Some Z4.neg }

let v x = Logic.Term.Var x
let e x y = Logic.Formula.Rel ("E", [ v x; v y ])

(* Σ_{x,y} [E(x,y)] · w(x) · w(y): reads every unary weight, so faults can
   land anywhere in the cone. *)
let edge_weight_expr =
  Logic.Expr.Sum
    ( [ "x"; "y" ],
      Logic.Expr.Mul
        [
          Logic.Expr.Guard (e "x" "y");
          Logic.Expr.Weight ("w", [ v "x" ]);
          Logic.Expr.Weight ("w", [ v "y" ]);
        ] )

let failures = ref 0

let fail fmt =
  Printf.ksprintf
    (fun s ->
      incr failures;
      Printf.eprintf "FAIL %s\n%!" s)
    fmt

(* One fresh instance + weights + checked evaluator per probe, so every
   probe sees the same initial state regardless of earlier commits. *)
let setup (type a) (ops : a Intf.ops) mode ~(of_int : int -> a) ~recover ~retries =
  let inst = Db.Instance.of_graph (Graphs.Gen.path 6) in
  let w = Db.Weights.create ~name:"w" ~arity:1 ~zero:(of_int 0) in
  Db.Weights.fill_unary w ~n:(Db.Instance.n inst) (fun i -> of_int (((i * 5) + 2) mod 11));
  let weights = Db.Weights.bundle [ w ] in
  match
    Engine.Eval.prepare_checked ops ~mode ~tfa_rounds:1 ~recover ~retries
      ~backoff_ms:0.0 inst weights edge_weight_expr
  with
  | Ok ck -> (inst, weights, ck)
  | Error err -> failwith ("chaos setup: " ^ Robust.to_string err)

type shape = Single | Batched | Structural

let shape_name = function
  | Single -> "single"
  | Batched -> "batched"
  | Structural -> "structural"

let apply (type a) ~(of_int : int -> a) shape ck =
  match shape with
  | Single -> Engine.Eval.update_checked ck "w" [ 1 ] (of_int 9)
  | Batched ->
      Engine.Eval.update_many_checked ck
        [ ("w", [ 1 ], of_int 50); ("w", [ 3 ], of_int 60) ]
  (* a chord on the path: absent initially, stays within the compiled
     treedepth bound, and its splice rebuilds a faultable set of gates *)
  | Structural -> Engine.Eval.insert_tuple_checked ck "E" [ 0; 3 ]

(* Count the wave's fault positions with a hook that never raises. *)
let count_positions (type a) (ops : a Intf.ops) mode ~(of_int : int -> a) shape =
  let _, _, ck = setup ops mode ~of_int ~recover:`Fail ~retries:0 in
  let ticks = ref 0 in
  Engine.Eval.set_fault_hook ck (Some (fun _ -> incr ticks));
  (match apply ~of_int shape ck with
  | Ok () -> ()
  | Error err -> failwith ("chaos probe wave: " ^ Robust.to_string err));
  !ticks

let probe (type a) name (ops : a Intf.ops) mode ~(of_int : int -> a) shape pos =
  let ctx scen = Printf.sprintf "%s/%s pos=%d %s" name (shape_name shape) pos scen in
  let reference inst weights = Engine.Reference.eval ops inst weights edge_weight_expr in
  let check_value scen inst weights ck =
    match Engine.Eval.value_checked ck with
    | Ok got ->
        if not (ops.Intf.equal got (reference inst weights)) then
          fail "%s: circuit diverged from reference on committed weights" (ctx scen)
    | Error err -> fail "%s: value_checked: %s" (ctx scen) (Robust.to_string err)
  in
  (* --- `Fail: error surfaces, state fully rolled back --- *)
  let inst, weights, ck = setup ops mode ~of_int ~recover:`Fail ~retries:0 in
  let ticks = ref 0 in
  Engine.Eval.set_fault_hook ck
    (Some
       (fun _ ->
         incr ticks;
         if !ticks = pos then failwith "chaos fault"));
  (match apply ~of_int shape ck with
  | Error (Robust.Internal_divergence _) -> ()
  | Error err -> fail "%s: wrong classification: %s" (ctx "fail") (Robust.to_string err)
  | Ok () -> fail "%s: faulted update reported success" (ctx "fail"));
  Engine.Eval.set_fault_hook ck None;
  check_value "fail/rolled-back" inst weights ck;
  (match apply ~of_int shape ck with
  | Ok () -> check_value "fail/retried" inst weights ck
  | Error err -> fail "%s: clean retry failed: %s" (ctx "fail") (Robust.to_string err));
  (* --- `Rollback: a transient fault is retried to success --- *)
  let inst, weights, ck = setup ops mode ~of_int ~recover:`Rollback ~retries:3 in
  let ticks = ref 0 in
  Engine.Eval.set_fault_hook ck
    (Some
       (fun _ ->
         incr ticks;
         if !ticks = pos then failwith "chaos transient fault"));
  (match apply ~of_int shape ck with
  | Ok () -> check_value "rollback/retried" inst weights ck
  | Error err ->
      fail "%s: transient fault not absorbed: %s" (ctx "rollback") (Robust.to_string err));
  (* --- `Repair: rollback is sabotaged too; repair + retry still wins --- *)
  let inst, weights, ck = setup ops mode ~of_int ~recover:`Repair ~retries:3 in
  let ticks = ref 0 and sabotaged = ref false in
  Engine.Eval.set_fault_hook ck
    (Some
       (fun _ ->
         incr ticks;
         if !ticks = pos then failwith "chaos fault"));
  Engine.Eval.set_rollback_fault_hook ck
    (Some
       (fun () ->
         if not !sabotaged then begin
           sabotaged := true;
           failwith "chaos rollback fault"
         end));
  (match apply ~of_int shape ck with
  | Ok () -> check_value "repair/healed" inst weights ck
  | Error err ->
      fail "%s: poisoned circuit not repaired: %s" (ctx "repair") (Robust.to_string err));
  if not !sabotaged then fail "%s: rollback sabotage never fired" (ctx "repair")

let sweep (type a) name (ops : a Intf.ops) mode ~(of_int : int -> a) =
  List.iter
    (fun shape ->
      let positions = count_positions ops mode ~of_int shape in
      if positions = 0 then
        fail "%s/%s: wave performed no recomputations" name (shape_name shape)
      else begin
        for pos = 1 to positions do
          probe name ops mode ~of_int shape pos
        done;
        Printf.printf "chaos: %s/%s — %d fault position(s), 3 policies each\n%!" name
          (shape_name shape) positions
      end)
    [ Single; Batched; Structural ]

(* The point-query shape: f(x) = Σ_y [E(x,y)] · w(x) · w(y), free x. A
   query is one read-only what-if wave over the cone of x's query
   weight, so a fault at any of its positions must surface as
   [Internal_divergence] with nothing to roll back: the rollback hook is
   sabotaged and must never fire, and afterwards the committed value is
   still zero and the query at every point agrees with the reference. *)
let query_expr =
  Logic.Expr.Sum
    ( [ "y" ],
      Logic.Expr.Mul
        [
          Logic.Expr.Guard (e "x" "y");
          Logic.Expr.Weight ("w", [ v "x" ]);
          Logic.Expr.Weight ("w", [ v "y" ]);
        ] )

let query_sweep (type a) name (ops : a Intf.ops) mode ~(of_int : int -> a) =
  let x = 2 in
  let setup () =
    let inst = Db.Instance.of_graph (Graphs.Gen.path 6) in
    let w = Db.Weights.create ~name:"w" ~arity:1 ~zero:(of_int 0) in
    Db.Weights.fill_unary w ~n:(Db.Instance.n inst) (fun i -> of_int (((i * 5) + 2) mod 11));
    let weights = Db.Weights.bundle [ w ] in
    match
      Engine.Eval.prepare_checked ops ~mode ~tfa_rounds:1 ~recover:`Repair ~retries:3
        ~backoff_ms:0.0 inst weights query_expr
    with
    | Ok ck -> (inst, weights, ck)
    | Error err -> failwith ("chaos query setup: " ^ Robust.to_string err)
  in
  let _, _, ck = setup () in
  let ticks = ref 0 in
  Engine.Eval.set_fault_hook ck (Some (fun _ -> incr ticks));
  (match Engine.Eval.query_checked ck [ x ] with
  | Ok _ -> ()
  | Error err -> failwith ("chaos query probe: " ^ Robust.to_string err));
  let positions = !ticks in
  if positions = 0 then fail "%s/query: what-if performed no recomputations" name;
  for pos = 1 to positions do
    let ctx = Printf.sprintf "%s/query pos=%d" name pos in
    let inst, weights, ck = setup () in
    let ticks = ref 0 and sabotaged = ref false in
    Engine.Eval.set_fault_hook ck
      (Some
         (fun _ ->
           incr ticks;
           if !ticks = pos then failwith "chaos fault"));
    Engine.Eval.set_rollback_fault_hook ck
      (Some
         (fun () ->
           sabotaged := true;
           failwith "chaos rollback fault"));
    (match Engine.Eval.query_checked ck [ x ] with
    | Error (Robust.Internal_divergence _) -> ()
    | Error err -> fail "%s: wrong classification: %s" ctx (Robust.to_string err)
    | Ok _ -> fail "%s: faulted query answered" ctx);
    Engine.Eval.set_fault_hook ck None;
    Engine.Eval.set_rollback_fault_hook ck None;
    if !sabotaged then fail "%s: a query ran a rollback" ctx;
    (* the committed query weights are all zero, and so is the value *)
    (match Engine.Eval.value_checked ck with
    | Ok got ->
        if not (ops.Intf.equal got ops.Intf.zero) then fail "%s: query weights left applied" ctx
    | Error err -> fail "%s: value_checked: %s" ctx (Robust.to_string err));
    for a = 0 to Db.Instance.n inst - 1 do
      match Engine.Eval.query_checked ck [ a ] with
      | Ok got ->
          if
            not
              (ops.Intf.equal got
                 (Engine.Reference.eval ops inst weights ~env:[ ("x", a) ] query_expr))
          then fail "%s: query at %d diverged from reference" ctx a
      | Error err -> fail "%s: query at %d: %s" ctx a (Robust.to_string err)
    done
  done;
  Printf.printf "chaos: %s/query — %d fault position(s)\n%!" name positions

let contains needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let () =
  Engine.Eval.set_retry_sleep (Some (fun _ -> ()));
  let rollbacks = Obs.counter ~scope:"dyn" "rollbacks" in
  let repairs = Obs.counter ~scope:"dyn" "repairs" in
  let retries = Obs.counter ~scope:"dyn" "retries" in
  let r0 = Obs.Counter.get rollbacks
  and p0 = Obs.Counter.get repairs
  and t0 = Obs.Counter.get retries in
  sweep "general-nat" nat_ops Circuits.Dyn.General ~of_int:(fun i -> i);
  sweep "ring-int" int_ops Circuits.Dyn.Ring ~of_int:(fun i -> i);
  sweep "finite-z4" z4_ops Circuits.Dyn.Finite ~of_int:Z4.of_int;
  query_sweep "general-nat" nat_ops Circuits.Dyn.General ~of_int:(fun i -> i);
  query_sweep "ring-int" int_ops Circuits.Dyn.Ring ~of_int:(fun i -> i);
  query_sweep "finite-z4" z4_ops Circuits.Dyn.Finite ~of_int:Z4.of_int;
  Engine.Eval.set_retry_sleep None;
  if Obs.Counter.get rollbacks <= r0 then fail "dyn/rollbacks counter never moved";
  if Obs.Counter.get repairs <= p0 then fail "dyn/repairs counter never moved";
  if Obs.Counter.get retries <= t0 then fail "dyn/retries counter never moved";
  let snap = Obs.snapshot () in
  List.iter
    (fun m -> if not (contains m snap) then fail "metric %s missing from snapshot" m)
    [ "rollbacks"; "repairs"; "retries"; "journal_batches"; "journal_bytes"; "splices" ];
  if !failures > 0 then begin
    Printf.eprintf "chaos: %d violation(s)\n%!" !failures;
    exit 1
  end;
  Printf.printf "chaos: all probes recovered (rollback or repair, never a third state)\n%!"
