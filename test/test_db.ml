(* Tests for the database substrate: schemas, instances, weight functions,
   Gaifman graphs, and Gaifman-preserving update checks. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let schema_basics () =
  let s = Db.Schema.make ~funcs:[ "f" ] [ ("E", 2); ("P", 1) ] in
  check_int "arity E" 2 (Db.Schema.arity s "E");
  check_bool "has P" true (Db.Schema.has_rel s "P");
  check_bool "has f" true (Db.Schema.has_func s "f");
  check_bool "no Q" false (Db.Schema.has_rel s "Q");
  Alcotest.check_raises "duplicate rejected"
    (Invalid_argument "Schema: duplicate relation E") (fun () ->
      ignore (Db.Schema.add_rel s ("E", 3)));
  Alcotest.check_raises "arity 0 rejected"
    (Invalid_argument "Schema: relation R has arity 0") (fun () ->
      ignore (Db.Schema.make [ ("R", 0) ]))

let instance_crud () =
  let s = Db.Schema.make [ ("E", 2); ("P", 1) ] in
  let i = Db.Instance.create s ~n:5 in
  Db.Instance.add i "E" [ 0; 1 ];
  (* regression: a duplicate insert used to be a silent last-write-wins
     replace; structural deltas need it to be a structured error *)
  Alcotest.check_raises "duplicate insert rejected"
    (Robust.Error (Robust.Bad_input "Instance: duplicate tuple E(0,1)")) (fun () ->
      Db.Instance.add i "E" [ 0; 1 ]);
  check_int "duplicate left cardinality alone" 1 (Db.Instance.cardinality i "E");
  check_bool "mem" true (Db.Instance.mem i "E" [ 0; 1 ]);
  check_bool "not mem reversed" false (Db.Instance.mem i "E" [ 1; 0 ]);
  Db.Instance.remove i "E" [ 0; 1 ];
  check_int "removed" 0 (Db.Instance.cardinality i "E");
  Alcotest.check_raises "arity check"
    (Robust.Error (Robust.Bad_input "Instance: E expects arity 2")) (fun () ->
      Db.Instance.add i "E" [ 0 ]);
  Alcotest.check_raises "domain check"
    (Robust.Error (Robust.Bad_input "Instance: element 9 out of domain [0, 5)"))
    (fun () -> Db.Instance.add i "E" [ 0; 9 ]);
  Alcotest.check_raises "unknown relation"
    (Robust.Error (Robust.Bad_input "Instance: unknown relation Q")) (fun () ->
      Db.Instance.add i "Q" [ 0 ]);
  (* set semantics: the result says whether membership changed *)
  check_bool "set adds" true (Db.Instance.set i "E" [ 2; 3 ] true);
  check_bool "set re-add is a no-op" false (Db.Instance.set i "E" [ 2; 3 ] true);
  check_int "no duplicate" 1 (Db.Instance.cardinality i "E");
  check_bool "set removes" true (Db.Instance.set i "E" [ 2; 3 ] false);
  check_bool "set re-remove is a no-op" false (Db.Instance.set i "E" [ 2; 3 ] false);
  Alcotest.check_raises "set validates what it adds"
    (Robust.Error (Robust.Bad_input "Instance: element 9 out of domain [0, 5)"))
    (fun () -> ignore (Db.Instance.set i "E" [ 0; 9 ] true))

let gaifman_graph () =
  let s = Db.Schema.make [ ("R", 3) ] in
  let i = Db.Instance.create s ~n:6 in
  Db.Instance.add i "R" [ 0; 1; 2 ];
  Db.Instance.add i "R" [ 3; 3; 4 ];
  let g = Db.Instance.gaifman i in
  check_bool "0-1" true (Graphs.Graph.has_edge g 0 1);
  check_bool "1-2" true (Graphs.Graph.has_edge g 1 2);
  check_bool "0-2" true (Graphs.Graph.has_edge g 0 2);
  check_bool "3-4" true (Graphs.Graph.has_edge g 3 4);
  check_bool "no self loop" false (Graphs.Graph.has_edge g 3 3);
  check_bool "0-3 absent" false (Graphs.Graph.has_edge g 0 3);
  (* clique check for Gaifman-preserving updates *)
  check_bool "tuple within clique ok" true (Db.Instance.clique_in g [ 2; 0; 1 ]);
  check_bool "cross-clique tuple rejected" false (Db.Instance.clique_in g [ 0; 3 ]);
  check_bool "tuple with repeats ok" true (Db.Instance.clique_in g [ 3; 3; 4 ])

let functions () =
  let s = Db.Schema.make ~funcs:[ "f" ] [ ("P", 1) ] in
  let i = Db.Instance.create s ~n:4 in
  check_int "identity default" 2 (Db.Instance.apply_func i "f" 2);
  Db.Instance.set_func i "f" [| 1; 2; 3; 3 |];
  check_int "after set" 3 (Db.Instance.apply_func i "f" 2);
  let g = Db.Instance.gaifman i in
  check_bool "function edges in gaifman" true (Graphs.Graph.has_edge g 0 1)

let with_relation_copy () =
  let i = Db.Instance.of_graph (Graphs.Gen.path 4) in
  let i2 = Db.Instance.with_relation i "P" ~arity:1 [ [ 0 ]; [ 2 ] ] in
  check_bool "P in copy" true (Db.Instance.mem i2 "P" [ 0 ]);
  check_bool "original untouched" false (Db.Schema.has_rel (Db.Instance.schema i) "P");
  check_bool "edges copied" true (Db.Instance.mem i2 "E" [ 0; 1 ]);
  (* mutations of the copy do not leak back *)
  Db.Instance.remove i2 "E" [ 0; 1 ];
  check_bool "copy-on-write isolation" true (Db.Instance.mem i "E" [ 0; 1 ])

let weights_basics () =
  let w = Db.Weights.create ~name:"w" ~arity:2 ~zero:0 in
  check_int "zero default" 0 (Db.Weights.get w [ 1; 2 ]);
  Db.Weights.set w [ 1; 2 ] 7;
  check_int "after set" 7 (Db.Weights.get w [ 1; 2 ]);
  check_int "support" 1 (Db.Weights.cardinality w);
  Db.Weights.remove w [ 1; 2 ];
  check_int "after remove" 0 (Db.Weights.get w [ 1; 2 ]);
  Alcotest.check_raises "arity check"
    (Robust.Error (Robust.Bad_input "Weights.set: w expects arity 2")) (fun () ->
      Db.Weights.set w [ 1 ] 3);
  (* names under the reserved "__qv" prefix would collide with the engine's
     internal query-variable weights: reject at creation, loudly *)
  check_bool "reserved prefix rejected" true
    (try
       ignore (Db.Weights.create ~name:"__qv0" ~arity:1 ~zero:0);
       false
     with Robust.Error (Robust.Bad_input _) -> true)

let bundle_ops () =
  let u = Db.Weights.create ~name:"u" ~arity:1 ~zero:0 in
  let b = Db.Weights.bundle [ u ] in
  check_bool "find" true (Db.Weights.name (Db.Weights.find b "u") = "u");
  check_bool "mem" true (Db.Weights.mem_bundle b "u");
  check_bool "not mem" false (Db.Weights.mem_bundle b "nope");
  Alcotest.check_raises "unknown"
    (Robust.Error (Robust.Bad_input "Weights: unknown weight symbol v")) (fun () ->
      ignore (Db.Weights.find b "v"))

let instance_size_linear =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"of_graph stores both arc directions" ~count:30
       QCheck.(pair (int_range 0 1000) (int_range 2 40))
       (fun (seed, n) ->
         let g = Graphs.Gen.random_sparse ~seed ~n ~avg_deg:3 in
         let inst = Db.Instance.of_graph g in
         Db.Instance.cardinality inst "E" = 2 * Graphs.Graph.m g))

let suite =
  [
    Alcotest.test_case "schema" `Quick schema_basics;
    Alcotest.test_case "instance add/remove/mem" `Quick instance_crud;
    Alcotest.test_case "gaifman graph" `Quick gaifman_graph;
    Alcotest.test_case "unary functions" `Quick functions;
    Alcotest.test_case "with_relation isolation" `Quick with_relation_copy;
    Alcotest.test_case "weights" `Quick weights_basics;
    Alcotest.test_case "weight bundles" `Quick bundle_ops;
    instance_size_linear;
  ]
