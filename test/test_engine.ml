(* End-to-end tests of the Theorem 6 / Theorem 8 pipeline: circuits
   compiled from weighted expressions must agree with the brute-force
   reference evaluator on every graph class, semiring, and query we throw
   at them, including under weight updates and free-variable queries. *)

open Semiring

let nat_ops = Intf.ops_of_module (module Instances.Nat)
let int_ops = Intf.ops_of_ring (module Instances.Int_ring)
let trop_ops = Intf.ops_of_module (module Tropical.Min_plus)
let bool_ops = Intf.ops_of_finite (module Instances.Bool)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let v x = Logic.Term.Var x
let e x y = Logic.Formula.Rel ("E", [ v x; v y ])

(* Σ_{x,y,z} [E(x,y) ∧ E(y,z) ∧ E(z,x)] — directed triangle count *)
let triangle_count =
  Logic.Expr.Sum
    ( [ "x"; "y"; "z" ],
      Logic.Expr.Guard (Logic.Formula.And [ e "x" "y"; e "y" "z"; e "z" "x" ]) )

(* Σ_{x,y} [E(x,y)] · w(x,y) — total edge weight *)
let edge_weight =
  Logic.Expr.Sum
    ( [ "x"; "y" ],
      Logic.Expr.Mul
        [ Logic.Expr.Guard (e "x" "y"); Logic.Expr.Weight ("w", [ v "x"; v "y" ]) ] )

(* Σ_{x,y} [x ≠ y ∧ ¬E(x,y)] · u(x) · v(y) — non-edge pairs, weighted *)
let non_edges =
  Logic.Expr.Sum
    ( [ "x"; "y" ],
      Logic.Expr.Mul
        [
          Logic.Expr.Guard
            (Logic.Formula.And
               [ Logic.Formula.neq (v "x") (v "y"); Logic.Formula.Not (e "x" "y") ]);
          Logic.Expr.Weight ("u", [ v "x" ]);
          Logic.Expr.Weight ("vv", [ v "y" ]);
        ] )

(* Σ_{x,y,z} [E(x,y) ∧ E(y,z) ∧ x ≠ z] · w(x,y) · w(y,z) — weighted paths *)
let path2_weight =
  Logic.Expr.Sum
    ( [ "x"; "y"; "z" ],
      Logic.Expr.Mul
        [
          Logic.Expr.Guard
            (Logic.Formula.And [ e "x" "y"; e "y" "z"; Logic.Formula.neq (v "x") (v "z") ]);
          Logic.Expr.Weight ("w", [ v "x"; v "y" ]);
          Logic.Expr.Weight ("w", [ v "y"; v "z" ]);
        ] )

let unary_weights inst names value =
  Db.Weights.bundle
    (List.map
       (fun name ->
         let w = Db.Weights.create ~name ~arity:1 ~zero:0 in
         Db.Weights.fill_unary w ~n:(Db.Instance.n inst) (value name);
         w)
       names)

let edge_weights_bundle inst value =
  let w = Db.Weights.create ~name:"w" ~arity:2 ~zero:0 in
  Db.Weights.fill_from_relation w inst "E" value;
  Db.Weights.bundle [ w ]

let graphs_under_test seed =
  [
    ("path10", Graphs.Gen.path 10);
    ("cycle9", Graphs.Gen.cycle 9);
    ("grid4x4", Graphs.Gen.grid 4 4);
    ("tri-grid3x4", Graphs.Gen.triangulated_grid 3 4);
    ("star12", Graphs.Gen.star 12);
    ("K5", Graphs.Gen.complete 5);
    ("rand-sparse", Graphs.Gen.random_sparse ~seed ~n:14 ~avg_deg:3);
    ("rand-deg3", Graphs.Gen.random_bounded_degree ~seed:(seed + 1) ~n:14 ~max_deg:3);
    ("tree15", Graphs.Gen.random_tree ~seed:(seed + 2) ~n:15);
    ("caterpillar", Graphs.Gen.caterpillar ~spine:4 ~legs:2);
  ]

(* compiled value = reference value, for a nat query without weights *)
let test_counting_query name expr () =
  List.iter
    (fun (gname, g) ->
      let inst = Db.Instance.of_graph g in
      let weights = Db.Weights.bundle [] in
      let expected = Logic.Expr.eval (module Instances.Nat) inst weights expr () in
      let actual = Engine.Eval.evaluate nat_ops inst weights expr in
      check_int (Printf.sprintf "%s on %s" name gname) expected actual)
    (graphs_under_test 7)

let test_weighted_query () =
  List.iter
    (fun (gname, g) ->
      let inst = Db.Instance.of_graph g in
      let weights = edge_weights_bundle inst (fun tup -> List.fold_left ( + ) 1 tup) in
      let expected = Logic.Expr.eval (module Instances.Nat) inst weights edge_weight () in
      let actual = Engine.Eval.evaluate nat_ops inst weights edge_weight in
      check_int (Printf.sprintf "edge_weight on %s" gname) expected actual)
    (graphs_under_test 21)

let test_negated_query () =
  List.iter
    (fun (gname, g) ->
      let inst = Db.Instance.of_graph g in
      let weights = unary_weights inst [ "u"; "vv" ] (fun name i -> if name = "u" then i + 1 else 2 * i + 1) in
      let expected = Logic.Expr.eval (module Instances.Nat) inst weights non_edges () in
      let actual = Engine.Eval.evaluate nat_ops inst weights non_edges in
      check_int (Printf.sprintf "non_edges on %s" gname) expected actual)
    (graphs_under_test 33)

let test_path2 () =
  List.iter
    (fun (gname, g) ->
      let inst = Db.Instance.of_graph g in
      let weights = edge_weights_bundle inst (fun tup -> 1 + (List.fold_left ( + ) 0 tup mod 5)) in
      let expected = Logic.Expr.eval (module Instances.Nat) inst weights path2_weight () in
      let actual = Engine.Eval.evaluate nat_ops inst weights path2_weight in
      check_int (Printf.sprintf "path2 on %s" gname) expected actual)
    (graphs_under_test 45)

(* tropical semiring: minimum-cost triangle *)
let min_cost_triangle () =
  let g = Graphs.Gen.triangulated_grid 4 4 in
  let inst = Db.Instance.of_graph g in
  let open Instances in
  let w = Db.Weights.create ~name:"w" ~arity:2 ~zero:Inf in
  Db.Weights.fill_from_relation w inst "E" (fun tup ->
      Fin (match tup with [ a; b ] -> ((a * 7) + (b * 3)) mod 11 | _ -> 0));
  let weights = Db.Weights.bundle [ w ] in
  let expr =
    Logic.Expr.Sum
      ( [ "x"; "y"; "z" ],
        Logic.Expr.Mul
          [
            Logic.Expr.Guard (Logic.Formula.And [ e "x" "y"; e "y" "z"; e "z" "x" ]);
            Logic.Expr.Weight ("w", [ v "x"; v "y" ]);
            Logic.Expr.Weight ("w", [ v "y"; v "z" ]);
            Logic.Expr.Weight ("w", [ v "z"; v "x" ]);
          ] )
  in
  let expected = Logic.Expr.eval (module Tropical.Min_plus) inst weights expr () in
  let actual = Engine.Eval.evaluate trop_ops inst weights expr in
  check_bool "min cost triangle" true (equal_extended expected actual)

(* boolean semiring: Σ = ∃ — triangle existence *)
let triangle_existence () =
  List.iter
    (fun (gname, g) ->
      let inst = Db.Instance.of_graph g in
      let weights = Db.Weights.bundle [] in
      let expected = Logic.Expr.eval (module Instances.Bool) inst weights triangle_count () in
      let actual = Engine.Eval.evaluate bool_ops inst weights triangle_count in
      check_bool (Printf.sprintf "triangle existence on %s" gname) expected actual)
    (graphs_under_test 57)

(* free-variable queries: f(x) = Σ_y [E(x,y)] · w(y) (weighted degree) *)
let free_variable_query () =
  let g = Graphs.Gen.grid 4 3 in
  let inst = Db.Instance.of_graph g in
  let weights = unary_weights inst [ "w" ] (fun _ i -> (i * i) + 1) in
  let expr =
    Logic.Expr.Sum
      ( [ "y" ],
        Logic.Expr.Mul [ Logic.Expr.Guard (e "x" "y"); Logic.Expr.Weight ("w", [ v "y" ]) ] )
  in
  let t = Engine.Eval.prepare nat_ops inst weights expr in
  for a = 0 to Db.Instance.n inst - 1 do
    let expected = Logic.Expr.eval (module Instances.Nat) inst weights expr ~env:[ ("x", a) ] () in
    check_int (Printf.sprintf "f(%d)" a) expected (Engine.Eval.query t [ a ])
  done

(* dynamic updates tracked across all three strategies *)
let dynamic_updates mode ops_name ops () =
  ignore ops_name;
  let g = Graphs.Gen.triangulated_grid 3 3 in
  let inst = Db.Instance.of_graph g in
  let w = Db.Weights.create ~name:"w" ~arity:2 ~zero:0 in
  Db.Weights.fill_from_relation w inst "E" (fun _ -> 1);
  let weights = Db.Weights.bundle [ w ] in
  let t = Engine.Eval.prepare ops ~mode inst weights path2_weight in
  let edges = Db.Instance.tuples inst "E" in
  let rng = Graphs.Rand.create 99 in
  List.iteri
    (fun step _ ->
      let tup = List.nth edges (Graphs.Rand.int rng (List.length edges)) in
      let nv = Graphs.Rand.int rng 4 in
      Db.Weights.set w tup nv;
      Engine.Eval.update t "w" tup nv;
      if step mod 3 = 0 then begin
        let expected = Logic.Expr.eval (module Instances.Nat) inst weights path2_weight () in
        check_int (Printf.sprintf "after update %d" step) expected (Engine.Eval.value t)
      end)
    (List.init 12 Fun.id)

(* one update_many call per batch = the same writes applied one at a time,
   and both = the reference evaluator, in every dynamic mode *)
let batched_engine_updates mode ops () =
  let g = Graphs.Gen.triangulated_grid 3 3 in
  let inst = Db.Instance.of_graph g in
  let w = Db.Weights.create ~name:"w" ~arity:2 ~zero:0 in
  Db.Weights.fill_from_relation w inst "E" (fun _ -> 1);
  let weights = Db.Weights.bundle [ w ] in
  let batch_t = Engine.Eval.prepare ops ~mode inst weights path2_weight in
  let seq_t = Engine.Eval.prepare ops ~mode inst weights path2_weight in
  let edges = Db.Instance.tuples inst "E" in
  let rng = Graphs.Rand.create 4242 in
  for round = 1 to 6 do
    let batch =
      List.init 8 (fun _ ->
          let tup = List.nth edges (Graphs.Rand.int rng (List.length edges)) in
          ("w", tup, Graphs.Rand.int rng 4))
    in
    List.iter (fun (_, tup, nv) -> Db.Weights.set w tup nv) batch;
    Engine.Eval.update_many batch_t batch;
    List.iter (fun (sym, tup, nv) -> Engine.Eval.update seq_t sym tup nv) batch;
    let expected = Engine.Reference.eval ops inst weights path2_weight in
    check_int (Printf.sprintf "round %d batched" round) expected (Engine.Eval.value batch_t);
    check_int (Printf.sprintf "round %d sequential" round) expected (Engine.Eval.value seq_t)
  done

(* weight symbols starting with the reserved "__qv" prefix collide with the
   engine's internal query-variable weights and must be rejected loudly *)
let reserved_prefix_rejected () =
  let inst = Db.Instance.of_graph (Graphs.Gen.path 4) in
  (match
     Engine.Eval.prepare nat_ops inst (Db.Weights.bundle [])
       (Logic.Expr.Sum ([ "x" ], Logic.Expr.Weight ("__qv1", [ v "x" ])))
   with
  | _ -> Alcotest.fail "reserved weight symbol accepted by prepare"
  | exception Robust.Error (Robust.Bad_input _) -> ());
  match Db.Weights.create ~name:"__qv0" ~arity:1 ~zero:0 with
  | _ -> Alcotest.fail "reserved weight name accepted by Weights.create"
  | exception Robust.Error (Robust.Bad_input _) -> ()

(* property: compiled = reference on random sparse graphs for the triangle
   and path queries over ℕ *)
let qcheck_compiled_matches =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"compiled = reference on random graphs" ~count:20
       QCheck.(pair (int_range 0 10000) (int_range 4 16))
       (fun (seed, n) ->
         let g = Graphs.Gen.random_sparse ~seed ~n ~avg_deg:3 in
         let inst = Db.Instance.of_graph g in
         let weights = edge_weights_bundle inst (fun tup -> 1 + (List.hd tup mod 3)) in
         List.for_all
           (fun expr ->
             Logic.Expr.eval (module Instances.Nat) inst weights expr ()
             = Engine.Eval.evaluate nat_ops inst weights expr)
           [ triangle_count; edge_weight; path2_weight ]))

(* shape enumeration sanity *)
let shape_counts () =
  (* one variable at depth ≤ d: d+1 shapes *)
  let summand =
    List.hd
      (Logic.Normal.of_expr
         (Logic.Expr.Sum ([ "x" ], Logic.Expr.Weight ("w", [ Logic.Term.Var "x" ]))))
  in
  check_int "1 var, d=3" 4 (List.length (Shapes.Shape.enumerate ~d:3 ~summand ()));
  (* two variables, d=0: both at depth 0; either equal or distinct *)
  let s2 =
    List.hd
      (Logic.Normal.of_expr
         (Logic.Expr.Sum
            ( [ "x"; "y" ],
              Logic.Expr.Mul
                [ Logic.Expr.Weight ("w", [ v "x" ]); Logic.Expr.Weight ("w", [ v "y" ]) ] )))
  in
  check_int "2 vars, d=0" 2 (List.length (Shapes.Shape.enumerate ~d:0 ~summand:s2 ()))

(* elimination forests *)
let elimination_forest_valid () =
  List.iter
    (fun (gname, g) ->
      let f = Graphs.Treedepth.best_forest g in
      check_bool (Printf.sprintf "elimination property on %s" gname) true
        (Graphs.Forest.is_elimination_forest f g))
    (graphs_under_test 71);
  (* depth is logarithmic on paths *)
  let f = Graphs.Treedepth.elimination_forest (Graphs.Gen.path 1024) in
  check_bool "log depth on path" true (Graphs.Forest.max_depth f <= 10)

let low_treedepth_coloring_works () =
  let g = Graphs.Gen.grid 8 8 in
  let c = Graphs.Tfa.low_treedepth_coloring g ~p:2 in
  check_bool "at least 2 colors" true (c.Graphs.Tfa.num_colors >= 2);
  (* any 2 classes induce small depth on a small grid *)
  let d = Graphs.Tfa.max_induced_depth g c ~p:2 in
  check_bool (Printf.sprintf "induced depth %d reasonable" d) true (d <= 12)


(* the same compiled pipeline in further semirings: Z4, min-max, product *)
module Z4 = Semiring.Zmod.Z4
module MinMax = Instances.Min_max
module CountMin = Instances.Product (Instances.Nat) (Tropical.Min_plus)

let more_semirings =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"compiled = reference in Z4 / min-max / product" ~count:15
       QCheck.(pair (int_range 0 10000) (int_range 4 14))
       (fun (seed, n) ->
         let g = Graphs.Gen.random_sparse ~seed ~n ~avg_deg:3 in
         let inst = Db.Instance.of_graph g in
         (* Z4 *)
         let w4 = Db.Weights.create ~name:"w" ~arity:2 ~zero:Z4.zero in
         Db.Weights.fill_from_relation w4 inst "E" (fun tup -> Z4.of_int (List.hd tup));
         let b4 = Db.Weights.bundle [ w4 ] in
         let ok4 =
           Z4.equal
             (Logic.Expr.eval (module Z4) inst b4 path2_weight ())
             (Engine.Eval.evaluate (Intf.ops_of_finite (module Z4)) inst b4 path2_weight)
         in
         (* min-max: minimized bottleneck edge of a 2-path *)
         let open Instances in
         let wm = Db.Weights.create ~name:"w" ~arity:2 ~zero:Inf in
         Db.Weights.fill_from_relation wm inst "E" (fun tup ->
             Fin (List.fold_left ( + ) 0 tup mod 9));
         let bm = Db.Weights.bundle [ wm ] in
         let okm =
           equal_extended
             (Logic.Expr.eval (module MinMax) inst bm path2_weight ())
             (Engine.Eval.evaluate (Intf.ops_of_module (module MinMax)) inst bm path2_weight)
         in
         (* product: count and min cost in one pass *)
         let wp = Db.Weights.create ~name:"w" ~arity:2 ~zero:CountMin.zero in
         Db.Weights.fill_from_relation wp inst "E" (fun tup -> (1, Fin (List.hd tup mod 5)));
         let bp = Db.Weights.bundle [ wp ] in
         let okp =
           CountMin.equal
             (Logic.Expr.eval (module CountMin) inst bp path2_weight ())
             (Engine.Eval.evaluate (Intf.ops_of_module (module CountMin)) inst bp path2_weight)
         in
         ok4 && okm && okp))

(* updates in finite-semiring mode through the full engine *)
let finite_engine_updates () =
  let g = Graphs.Gen.triangulated_grid 3 3 in
  let inst = Db.Instance.of_graph g in
  let w = Db.Weights.create ~name:"w" ~arity:2 ~zero:Z4.zero in
  Db.Weights.fill_from_relation w inst "E" (fun _ -> Z4.one);
  let weights = Db.Weights.bundle [ w ] in
  let ops = Intf.ops_of_finite (module Z4) in
  let t = Engine.Eval.prepare ops ~mode:Circuits.Dyn.Finite inst weights path2_weight in
  let edges = Db.Instance.tuples inst "E" in
  let rng = Graphs.Rand.create 7 in
  for step = 1 to 10 do
    let tup = List.nth edges (Graphs.Rand.int rng (List.length edges)) in
    let nv = Z4.of_int (Graphs.Rand.int rng 4) in
    Db.Weights.set w tup nv;
    Engine.Eval.update t "w" tup nv;
    let expected = Logic.Expr.eval (module Z4) inst weights path2_weight () in
    check_int (Printf.sprintf "Z4 after update %d" step) expected (Engine.Eval.value t)
  done

(* Example 9's PageRank kernel over the rationals in Ring mode:
   f(x) = (1-d)/n + d · Σ_y [E(y,x)] · w(y), on a boxed carrier. After
   each write-through update every query equals Engine.Reference. *)
let pagerank_rat_updates () =
  let rat_ops = Intf.ops_of_ring (module Rat.Ring) in
  let inst = Db.Instance.of_graph (Graphs.Gen.random_sparse ~seed:13 ~n:30 ~avg_deg:4) in
  let n = Db.Instance.n inst in
  let w = Db.Weights.create ~name:"w" ~arity:1 ~zero:Rat.zero in
  Db.Weights.fill_unary w ~n (fun i -> Rat.of_ints 1 (1 + (i mod 50)));
  let weights = Db.Weights.bundle [ w ] in
  let d = Rat.of_ints 85 100 in
  let expr =
    Logic.Expr.Add
      [
        Logic.Expr.Const (Rat.mul (Rat.sub Rat.one d) (Rat.of_ints 1 n));
        Logic.Expr.Mul
          [
            Logic.Expr.Const d;
            Logic.Expr.Sum
              ( [ "y" ],
                Logic.Expr.Mul
                  [ Logic.Expr.Guard (e "y" "x"); Logic.Expr.Weight ("w", [ v "y" ]) ] );
          ];
      ]
  in
  let t = Engine.Eval.prepare rat_ops ~mode:Circuits.Dyn.Ring ~tfa_rounds:1 inst weights expr in
  let agree step =
    for x = 0 to n - 1 do
      let want = Engine.Reference.eval rat_ops inst weights ~env:[ ("x", x) ] expr in
      let got = Engine.Eval.query t [ x ] in
      if not (Rat.equal got want) then
        Alcotest.failf "after %d updates: f(%d) = %s, reference %s" step x (Rat.to_string got)
          (Rat.to_string want)
    done
  in
  agree 0;
  let rng = Random.State.make [| 13; 5 |] in
  for step = 1 to 25 do
    let x = Random.State.int rng n in
    let value = Rat.of_ints 1 (1 + Random.State.int rng 1000) in
    Db.Weights.set w [ x ] value;
    Engine.Eval.update t "w" [ x ] value;
    if step mod 5 = 0 then agree step
  done

(* error paths: the engine must reject what it cannot compile, loudly *)
let error_paths () =
  let inst = Db.Instance.of_graph (Graphs.Gen.path 4) in
  (* free variables at the compile entry point *)
  check_bool "free vars rejected" true
    (try
       ignore
         (Engine.Compile.compile ~zero:0 ~one:1 inst
            (Logic.Expr.Weight ("w", [ v "x" ])));
       false
     with Robust.Error (Robust.Bad_input _) -> true);
  (* five-variable summand *)
  let five =
    Logic.Expr.Sum
      ( [ "a"; "b"; "c"; "d"; "e" ],
        Logic.Expr.Mul
          (List.map (fun x -> Logic.Expr.Weight ("w", [ v x ])) [ "a"; "b"; "c"; "d"; "e" ]) )
  in
  check_bool "5 variables rejected" true
    (try
       ignore (Engine.Compile.compile ~zero:0 ~one:1 inst five);
       false
     with Robust.Error (Robust.Unsupported_fragment _) -> true);
  (* quantifier inside a guard at the compile layer *)
  let quantified =
    Logic.Expr.Sum
      ([ "x" ], Logic.Expr.Guard (Logic.Formula.Exists ("y", e "x" "y")))
  in
  check_bool "quantified guard rejected by normalization" true
    (try
       ignore (Engine.Compile.compile ~zero:0 ~one:1 inst quantified);
       false
     with Logic.Normal.Not_quantifier_free _ -> true);
  (* wrong query arity *)
  let w = Db.Weights.create ~name:"w" ~arity:1 ~zero:0 in
  Db.Weights.fill_unary w ~n:4 (fun i -> i);
  let t =
    Engine.Eval.prepare nat_ops inst (Db.Weights.bundle [ w ])
      (Logic.Expr.Sum ([ "y" ], Logic.Expr.Mul [ Logic.Expr.Guard (e "x" "y"); Logic.Expr.Weight ("w", [ v "y" ]) ]))
  in
  check_bool "wrong arity query rejected" true
    (try
       ignore (Engine.Eval.query t [ 0; 1 ]);
       false
     with Invalid_argument _ -> true);
  (* updates to never-read tuples are ignored, not errors *)
  Engine.Eval.update t "w" [ 0 ] 99;
  Engine.Eval.update t "nonexistent" [ 0 ] 99 |> ignore;
  check_int "still queries fine" 101 (Engine.Eval.query t [ 1 ]) (* w(0)+w(2) = 99+2 *)

(* compile on the empty database and the edgeless database *)
let degenerate_databases () =
  let empty = Db.Instance.create Db.Schema.graph_schema ~n:0 in
  check_int "empty db triangle count" 0
    (Engine.Eval.evaluate nat_ops empty (Db.Weights.bundle []) triangle_count);
  let edgeless = Db.Instance.create Db.Schema.graph_schema ~n:7 in
  check_int "edgeless db triangle count" 0
    (Engine.Eval.evaluate nat_ops edgeless (Db.Weights.bundle []) triangle_count);
  (* constant expressions still evaluate *)
  check_int "pure constant" 6
    (Engine.Eval.evaluate nat_ops edgeless (Db.Weights.bundle [])
       (Logic.Expr.Mul [ Logic.Expr.Const 2; Logic.Expr.Const 3 ]));
  (* Σ_x 1 = n through a permanent over roots *)
  check_int "domain count" 7
    (Engine.Eval.evaluate nat_ops edgeless (Db.Weights.bundle [])
       (Logic.Expr.Sum ([ "x" ], Logic.Expr.Guard Logic.Formula.True)))

let suite =
  [
    Alcotest.test_case "triangle count" `Quick (test_counting_query "triangles" triangle_count);
    Alcotest.test_case "edge weight sum" `Quick test_weighted_query;
    Alcotest.test_case "negated / inequality query" `Quick test_negated_query;
    Alcotest.test_case "weighted 2-paths" `Quick test_path2;
    Alcotest.test_case "min-cost triangle (tropical)" `Quick min_cost_triangle;
    Alcotest.test_case "triangle existence (boolean)" `Quick triangle_existence;
    Alcotest.test_case "free-variable query" `Quick free_variable_query;
    Alcotest.test_case "updates (general mode)" `Quick
      (dynamic_updates Circuits.Dyn.General "nat" nat_ops);
    Alcotest.test_case "updates (ring mode)" `Quick
      (dynamic_updates Circuits.Dyn.Ring "int" int_ops);
    Alcotest.test_case "batched updates (general mode)" `Quick
      (batched_engine_updates Circuits.Dyn.General nat_ops);
    Alcotest.test_case "batched updates (ring mode)" `Quick
      (batched_engine_updates Circuits.Dyn.Ring int_ops);
    Alcotest.test_case "batched updates (finite mode, Z4)" `Quick
      (batched_engine_updates Circuits.Dyn.Finite (Intf.ops_of_finite (module Z4)));
    Alcotest.test_case "reserved weight prefix rejected" `Quick reserved_prefix_rejected;
    qcheck_compiled_matches;
    more_semirings;
    Alcotest.test_case "updates (finite mode, Z4)" `Quick finite_engine_updates;
    Alcotest.test_case "PageRank kernel over Rat (ring mode)" `Quick pagerank_rat_updates;
    Alcotest.test_case "error paths" `Quick error_paths;
    Alcotest.test_case "degenerate databases" `Quick degenerate_databases;
    Alcotest.test_case "shape enumeration counts" `Quick shape_counts;
    Alcotest.test_case "elimination forests" `Quick elimination_forest_valid;
    Alcotest.test_case "low-treedepth coloring" `Quick low_treedepth_coloring_works;
  ]
