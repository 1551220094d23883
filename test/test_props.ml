(* Property-test harness (randomized, deterministic under QCHECK_SEED):

   1. the semiring axioms for the composite instances the rest of the
      suite does not cover (product semirings, non-prime moduli), plus the
      additive-group axioms of every ring instance;
   2. end-to-end circuit-vs-reference equality: the Theorem 6/8 pipeline
      and the brute-force Engine.Reference evaluator must agree on random
      sparse databases, in several semirings;
   3. the Theorem 24 constant-delay observables: answer streams are
      duplicate-free and the per-answer iterator work stays bounded by a
      constant as the database grows 10² → 10⁴. *)

open Semiring

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let t p = QCheck_alcotest.to_alcotest p

(* --- 1. axioms not covered by test_semiring --- *)

module PBN = Instances.Product (Instances.Bool) (Instances.Nat)
module Z6 = Zmod.Make (struct let modulus = 6 end)

let gen_pbn = QCheck.(map (fun (b, i) -> (b, abs i mod 1000)) (pair bool int))
let gen_z6 = QCheck.map Z6.of_int (QCheck.int_range (-100) 100)

let ring_axiom_tests (type a) name (module R : Intf.RING with type t = a)
    (arb : a QCheck.arbitrary) =
  let open QCheck in
  [
    t (Test.make ~name:(name ^ ": a + (-a) = 0") arb
         (fun a -> R.equal (R.add a (R.neg a)) R.zero));
    t (Test.make ~name:(name ^ ": -(a+b) = -a + -b") (pair arb arb)
         (fun (a, b) -> R.equal (R.neg (R.add a b)) (R.add (R.neg a) (R.neg b))));
    t (Test.make ~name:(name ^ ": sub = add neg") (pair arb arb)
         (fun (a, b) -> R.equal (R.sub a b) (R.add a (R.neg b))));
    t (Test.make ~name:(name ^ ": -(a·b) = (-a)·b") (pair arb arb)
         (fun (a, b) -> R.equal (R.neg (R.mul a b)) (R.mul (R.neg a) b)));
  ]

let axiom_suite =
  Test_semiring.axiom_tests "product(bool,nat)" (module PBN) gen_pbn
  @ Test_semiring.axiom_tests "zmod6" (module Z6) gen_z6
  @ ring_axiom_tests "int-ring" (module Instances.Int_ring) Test_semiring.gen_small_int
  @ ring_axiom_tests "bigint" (module Bigint.Ring) Test_semiring.gen_bigint
  @ ring_axiom_tests "rat" (module Rat.Ring) Test_semiring.gen_rat
  @ ring_axiom_tests "zmod6" (module Z6) gen_z6

(* --- 2. circuit vs reference on random sparse databases --- *)

let v x = Logic.Term.Var x
let e x y = Logic.Formula.Rel ("E", [ v x; v y ])

(* closed test expressions over one unary weight w *)
let expr_wedge =
  (* Σ_xy [E(x,y)]·w(x)·w(y) *)
  Logic.Expr.Sum
    ( [ "x"; "y" ],
      Logic.Expr.Mul
        [
          Logic.Expr.Guard (e "x" "y");
          Logic.Expr.Weight ("w", [ v "x" ]);
          Logic.Expr.Weight ("w", [ v "y" ]);
        ] )

let expr_wtri =
  (* Σ_xyz [E(x,y) ∧ E(y,z) ∧ E(z,x)]·w(x) *)
  Logic.Expr.Sum
    ( [ "x"; "y"; "z" ],
      Logic.Expr.Mul
        [
          Logic.Expr.Guard (Logic.Formula.And [ e "x" "y"; e "y" "z"; e "z" "x" ]);
          Logic.Expr.Weight ("w", [ v "x" ]);
        ] )

let expr_path2 =
  (* Σ_xyz [E(x,y) ∧ E(y,z) ∧ x≠z] *)
  Logic.Expr.Sum
    ( [ "x"; "y"; "z" ],
      Logic.Expr.Guard
        (Logic.Formula.And [ e "x" "y"; e "y" "z"; Logic.Formula.neq (v "x") (v "z") ]) )

(* random sparse instance: bounded-degree graph on 4..30 vertices *)
let gen_db = QCheck.(pair (int_range 4 30) (int_range 0 10000))

let circuit_eq_reference (type a) name (ops : a Intf.ops) (mk : int -> a) expr ~count =
  t
    (QCheck.Test.make ~count ~name:(Printf.sprintf "circuit = reference: %s" name) gen_db
       (fun (n, seed) ->
         let g = Graphs.Gen.random_bounded_degree ~seed ~n ~max_deg:3 in
         let inst = Db.Instance.of_graph g in
         let w = Db.Weights.create ~name:"w" ~arity:1 ~zero:ops.Intf.zero in
         Db.Weights.fill_unary w ~n (fun i -> mk ((i * 7) + seed));
         let weights = Db.Weights.bundle [ w ] in
         let got = Engine.Eval.evaluate ops ~tfa_rounds:1 inst weights expr in
         let want = Engine.Reference.eval ops inst weights expr in
         ops.Intf.equal got want))

let nat_ops = Intf.ops_of_module (module Instances.Nat)
let int_ops = Intf.ops_of_ring (module Instances.Int_ring)
let bool_ops = Intf.ops_of_finite (module Instances.Bool)
let trop_ops = Intf.ops_of_module (module Tropical.Min_plus)

let circuit_suite =
  [
    circuit_eq_reference "wedge/nat" nat_ops (fun i -> i mod 5) expr_wedge ~count:40;
    circuit_eq_reference "wedge/int-ring" int_ops (fun i -> (i mod 9) - 4) expr_wedge ~count:40;
    circuit_eq_reference "wedge/bool" bool_ops (fun i -> i mod 3 <> 0) expr_wedge ~count:40;
    circuit_eq_reference "wedge/min-plus" trop_ops
      (fun i -> Instances.Fin (i mod 20))
      expr_wedge ~count:25;
    circuit_eq_reference "triangle/nat" nat_ops (fun i -> (i mod 4) + 1) expr_wtri ~count:15;
    circuit_eq_reference "path2-count/nat" nat_ops (fun _ -> 1) expr_path2 ~count:15;
  ]

(* --- structural churn: incremental = scratch = reference --- *)

module Z6_props = Zmod.Make (struct let modulus = 6 end)

(* A random arc insert/delete sequence served through the localized
   incremental path (Eval.insert_tuple/delete_tuple — splice when the
   treedepth witness survives, fallback recompile when it doesn't) must
   agree after every step with a static evaluation of the spliced
   circuit, with a from-scratch compile of the mutated instance and with
   the brute-force reference. Random toggles on a
   bounded-degree graph hit both regimes: most stay localized, and the
   occasional long-range arc deepens a forest and forces the fallback. *)
let structural_churn_prop (type a) name (ops : a Intf.ops) (mk : int -> a) ~count =
  t
    (QCheck.Test.make ~count
       ~name:(Printf.sprintf "structural churn = scratch = reference: %s" name)
       QCheck.(pair (int_range 8 16) (int_range 0 10000))
       (fun (n, seed) ->
         let g = Graphs.Gen.random_bounded_degree ~seed ~n ~max_deg:3 in
         let inst = Db.Instance.of_graph g in
         let w = Db.Weights.create ~name:"w" ~arity:1 ~zero:ops.Intf.zero in
         Db.Weights.fill_unary w ~n (fun i -> mk ((i * 7) + seed));
         let weights = Db.Weights.bundle [ w ] in
         let ev = Engine.Eval.prepare ops ~tfa_rounds:1 inst weights expr_wtri in
         let valuation (wn, tup) = Db.Weights.get (Db.Weights.find weights wn) tup in
         let rng = Random.State.make [| seed; 77 |] in
         let ok = ref true in
         for _ = 1 to 8 do
           let u = Random.State.int rng n in
           let v2 = (u + 1 + Random.State.int rng (n - 1)) mod n in
           if Db.Instance.mem inst "E" [ u; v2 ] then
             Engine.Eval.delete_tuple ev "E" [ u; v2 ]
           else Engine.Eval.insert_tuple ev "E" [ u; v2 ];
           let got = Engine.Eval.value ev in
           let static = Circuits.Circuit.eval ops (Engine.Eval.circuit ev) valuation in
           let scratch = Engine.Eval.evaluate ops ~tfa_rounds:1 inst weights expr_wtri in
           let want = Engine.Reference.eval ops inst weights expr_wtri in
           if
             not
               (ops.Intf.equal got static && ops.Intf.equal got scratch
              && ops.Intf.equal got want)
           then ok := false
         done;
         !ok))

(* A journal of interleaved weight writes and structural toggles, saved
   to disk and loaded back, replayed onto a fresh prepare of the
   pre-journal instance must reconstruct the served state: the same
   value, the same tuple set, and a circuit whose static evaluation under
   the replayed inputs agrees. Weights are not written through to the
   store on either side (plain [Eval.update]): a write to a weight the
   circuit does not read is kept by the engine and journaled, so a splice
   that brings the weight in seeds it with the last write, live and in
   the replay alike. *)
let journal_replay_prop (type a) name (ops : a Intf.ops) (mk : int -> a) ~count =
  t
    (QCheck.Test.make ~count
       ~name:(Printf.sprintf "churn journal replay = live: %s" name)
       QCheck.(pair (int_range 5 14) (int_range 0 10000))
       (fun (n, seed) ->
         let g = Graphs.Gen.random_bounded_degree ~seed ~n ~max_deg:3 in
         let inst = Db.Instance.of_graph g in
         let inst0 = Db.Instance.copy inst in
         let w = Db.Weights.create ~name:"w" ~arity:1 ~zero:ops.Intf.zero in
         Db.Weights.fill_unary w ~n (fun i -> mk ((i * 7) + seed));
         let weights = Db.Weights.bundle [ w ] in
         let ev = Engine.Eval.prepare ops ~tfa_rounds:1 inst weights expr_wtri in
         let j = Engine.Eval.enable_journal ev in
         let rng = Random.State.make [| seed; 91 |] in
         for _ = 1 to 10 do
           if Random.State.bool rng then
             Engine.Eval.update ev "w" [ Random.State.int rng n ]
               (mk (Random.State.int rng 50))
           else begin
             let u = Random.State.int rng n and v2 = Random.State.int rng n in
             if u <> v2 then
               if Db.Instance.mem inst "E" [ u; v2 ] then
                 Engine.Eval.delete_tuple ev "E" [ u; v2 ]
               else Engine.Eval.insert_tuple ev "E" [ u; v2 ]
           end
         done;
         let path = Filename.temp_file "churn" ".spqj" in
         let j' =
           Fun.protect
             ~finally:(fun () -> Sys.remove path)
             (fun () ->
               Circuits.Journal.save j path;
               Circuits.Journal.load path)
         in
         let ev2 = Engine.Eval.prepare ops ~tfa_rounds:1 inst0 weights expr_wtri in
         Engine.Eval.replay ev2 j';
         let sorted i = List.sort compare (Db.Instance.tuples i "E") in
         let replayed_inputs key =
           match Circuits.Dyn.input_value ev2.Engine.Eval.dyn key with
           | Some v -> v
           | None -> ops.Intf.zero
         in
         let static =
           Circuits.Circuit.eval ops (Engine.Eval.circuit ev2) replayed_inputs
         in
         ops.Intf.equal (Engine.Eval.value ev) (Engine.Eval.value ev2)
         && ops.Intf.equal (Engine.Eval.value ev2) static
         && sorted inst = sorted inst0))

let z6_ops = Intf.ops_of_ring (module Z6_props)

let structural_churn_suite =
  [
    structural_churn_prop "nat" nat_ops (fun i -> i mod 5) ~count:10;
    structural_churn_prop "int-ring" int_ops (fun i -> (i mod 9) - 4) ~count:10;
    structural_churn_prop "zmod6" z6_ops (fun i -> Z6_props.of_int i) ~count:10;
    journal_replay_prop "nat" nat_ops (fun i -> i mod 5) ~count:10;
    journal_replay_prop "int-ring" int_ops (fun i -> (i mod 9) - 4) ~count:10;
    journal_replay_prop "zmod6" z6_ops (fun i -> Z6_props.of_int i) ~count:10;
  ]

(* --- 3. constant-delay enumeration (Theorem 24 observables) --- *)

let phi_path2 =
  Logic.Formula.And [ e "x" "y"; e "y" "z"; Logic.Formula.neq (v "x") (v "z") ]

(* Walk a full enumeration; returns (#answers, max iterator ticks spent on
   any single movement) and fails on a duplicate answer. *)
let drain_measuring name t =
  let it = Fo_enum.enumerate t in
  Enum.Iter.reset it;
  let seen = Hashtbl.create 256 in
  let max_work = ref 0 and count = ref 0 and continue = ref true in
  while !continue do
    let t0 = !Enum.Iter.ticks in
    Enum.Iter.next it;
    let work = !Enum.Iter.ticks - t0 in
    if work > !max_work then max_work := work;
    match Enum.Iter.current it with
    | Some a ->
        incr count;
        let key = Array.to_list a in
        if Hashtbl.mem seen key then
          Alcotest.failf "%s: duplicate answer (%s)" name
            (String.concat "," (List.map string_of_int key));
        Hashtbl.add seen key ()
    | None -> continue := false
  done;
  (!count, !max_work)

let constant_delay_paths () =
  (* per-answer work on path graphs must not grow with n: the delay at
     n = 10⁴ stays within a small factor of the delay at n = 10² *)
  let measure n =
    let inst = Db.Instance.of_graph (Graphs.Gen.path n) in
    let t = Fo_enum.prepare inst phi_path2 in
    let count, work = drain_measuring (Printf.sprintf "path %d" n) t in
    (* a path x–y–z in an n-path: 2 per inner vertex, ordered both ways *)
    check_int (Printf.sprintf "path %d answer count" n) (2 * (n - 2)) count;
    work
  in
  let w100 = measure 100 in
  let w1000 = measure 1_000 in
  let w10000 = measure 10_000 in
  check "per-answer work bounded across 10^2..10^4" true
    (w1000 <= 3 * w100 && w10000 <= 3 * w100)

let duplicate_free_grid () =
  let inst = Db.Instance.of_graph (Graphs.Gen.grid 7 7) in
  let t = Fo_enum.prepare inst phi_path2 in
  let count, _ = drain_measuring "grid 7x7" t in
  let _, want = Engine.Reference.answers inst phi_path2 in
  check_int "grid answers match reference count" (List.length want) count

let enum_work_histogram () =
  (* the fo_enum scope's answer_work histogram observes the same bound *)
  Obs.reset_scope "fo_enum";
  let inst = Db.Instance.of_graph (Graphs.Gen.path 200) in
  let t = Fo_enum.prepare inst phi_path2 in
  ignore (Fo_enum.answers t);
  let h = Obs.histogram ~scope:"fo_enum" "answer_work" in
  check_int "histogram saw every answer" (2 * 198) (Obs.Histogram.count h);
  check "histogram max work is a small constant" true (Obs.Histogram.max_value h < 256.)

let suite =
  axiom_suite @ circuit_suite @ structural_churn_suite
  @ [
      Alcotest.test_case "constant delay on paths 10^2..10^4" `Slow constant_delay_paths;
      Alcotest.test_case "duplicate-free enumeration on grid" `Quick duplicate_free_grid;
      Alcotest.test_case "answer_work histogram bounded" `Quick enum_work_histogram;
    ]
