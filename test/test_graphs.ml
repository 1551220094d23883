(* Tests for the graph substrate: generators, degeneracy orientations,
   DFS/elimination forests, and low-treedepth colorings. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let generator_shapes () =
  check_int "path edges" 9 (Graphs.Graph.m (Graphs.Gen.path 10));
  check_int "cycle edges" 9 (Graphs.Graph.m (Graphs.Gen.cycle 9));
  check_int "star edges" 9 (Graphs.Graph.m (Graphs.Gen.star 10));
  check_int "K5 edges" 10 (Graphs.Graph.m (Graphs.Gen.complete 5));
  check_int "grid 4x3 edges" ((3 * 3) + (4 * 2)) (Graphs.Graph.m (Graphs.Gen.grid 4 3));
  let g = Graphs.Gen.caterpillar ~spine:4 ~legs:2 in
  check_int "caterpillar n" 12 (Graphs.Graph.n g);
  check_int "caterpillar edges (tree)" 11 (Graphs.Graph.m g)

let bounded_degree_respected =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"random_bounded_degree respects cap" ~count:30
       QCheck.(pair (int_range 0 1000) (int_range 4 60))
       (fun (seed, n) ->
         let g = Graphs.Gen.random_bounded_degree ~seed ~n ~max_deg:3 in
         List.for_all (fun v -> Graphs.Graph.degree g v <= 3) (List.init n Fun.id)))

let trees_are_trees =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"random_tree is connected and acyclic" ~count:30
       QCheck.(pair (int_range 0 1000) (int_range 2 60))
       (fun (seed, n) ->
         let g = Graphs.Gen.random_tree ~seed ~n in
         let _, ncomp = Graphs.Graph.components g in
         ncomp = 1 && Graphs.Graph.m g = n - 1))

let induced_subgraph () =
  let g = Graphs.Gen.grid 3 3 in
  let sub, _, new_to_old = Graphs.Graph.induced g (fun v -> v mod 2 = 0) in
  check_int "vertices kept" 5 (Graphs.Graph.n sub);
  (* all surviving edges join originally adjacent pairs *)
  check_bool "edges preserved" true
    (List.for_all
       (fun (u, v) -> Graphs.Graph.has_edge g new_to_old.(u) new_to_old.(v))
       (Graphs.Graph.edges sub))

let degeneracy_orientation =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"degeneracy orientation: acyclic, covers edges" ~count:30
       QCheck.(pair (int_range 0 1000) (int_range 2 50))
       (fun (seed, n) ->
         let g = Graphs.Gen.random_sparse ~seed ~n ~avg_deg:4 in
         let o = Graphs.Orient.degeneracy_order g in
         (* every arc goes forward in the elimination order *)
         let acyclic = ref true in
         Array.iteri
           (fun v outs ->
             Array.iter
               (fun w -> if o.Graphs.Orient.rank.(w) <= o.Graphs.Orient.rank.(v) then acyclic := false)
               outs)
           o.Graphs.Orient.out;
         (* arc count equals edge count *)
         let arcs = Array.fold_left (fun acc a -> acc + Array.length a) 0 o.Graphs.Orient.out in
         !acyclic && arcs = Graphs.Graph.m g
         && Graphs.Orient.max_out_degree o <= o.Graphs.Orient.degeneracy))

let grid_degeneracy () =
  (* grids are 2-degenerate *)
  let o = Graphs.Orient.degeneracy_order (Graphs.Gen.grid 10 10) in
  check_int "grid degeneracy" 2 o.Graphs.Orient.degeneracy;
  let o = Graphs.Orient.degeneracy_order (Graphs.Gen.random_tree ~seed:3 ~n:50) in
  check_int "tree degeneracy" 1 o.Graphs.Orient.degeneracy

let dfs_forest_props =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"DFS forest: elimination property on random graphs" ~count:30
       QCheck.(pair (int_range 0 1000) (int_range 2 40))
       (fun (seed, n) ->
         let g = Graphs.Gen.random_sparse ~seed ~n ~avg_deg:3 in
         let f = Graphs.Forest.dfs_forest g in
         Graphs.Forest.is_elimination_forest f g))

let elim_forest_props =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"center-removal forest: elimination property" ~count:30
       QCheck.(pair (int_range 0 1000) (int_range 2 40))
       (fun (seed, n) ->
         let g = Graphs.Gen.random_sparse ~seed ~n ~avg_deg:3 in
         let f = Graphs.Treedepth.elimination_forest g in
         Graphs.Forest.is_elimination_forest f g))

(* The center-removal forest shares one BFS scratch across its calls.
   That must not change a single parent: the digests below were taken
   from the forests the allocate-per-call BFS built. *)
let elim_forest_digests () =
  let digest (f : Graphs.Forest.t) =
    Digest.to_hex
      (Digest.string
         (String.concat "," (Array.to_list (Array.map string_of_int f.Graphs.Forest.parent))))
  in
  (* paths of 7 with one chord each: 300 components *)
  let many_components n =
    Graphs.Graph.of_edges ~n
      (List.filter_map
         (fun i -> if i mod 7 <> 6 && i + 1 < n then Some (i, i + 1) else None)
         (List.init n Fun.id)
      @ List.filter_map
          (fun i -> if i mod 7 = 0 && i + 3 < n then Some (i, i + 3) else None)
          (List.init n Fun.id))
  in
  List.iter
    (fun (name, g, want) ->
      Alcotest.(check string) name want (digest (Graphs.Treedepth.elimination_forest g)))
    [
      ("grid 30x30", Graphs.Gen.grid 30 30, "9535d2f7ee7b280502cebad6d918bd16");
      ("tri-grid 30x30", Graphs.Gen.triangulated_grid 30 30, "5361a5ab291160b78113a925f806ff29");
      ( "deg3 n=1000",
        Graphs.Gen.random_bounded_degree ~seed:11 ~n:1000 ~max_deg:3,
        "f6562589971d34a3e469a6335f5dd523" );
      ("many components", many_components 2100, "1f29686a9e2c8ff5b5b7a2ecdc0c6876");
      ( "sparse n=2000",
        Graphs.Gen.random_sparse ~seed:5 ~n:2000 ~avg_deg:1,
        "d28f75b978fa31723f67c49d03c4315a" );
    ]

let forest_navigation () =
  (* a two-level forest: 0 root of {1,2}; 1 parent of {3} *)
  let f = Graphs.Forest.of_parents [| 0; 0; 0; 1 |] in
  check_int "depth 3" 2 (Graphs.Forest.depth f 3);
  check_int "ancestor clamps at root" 0 (Graphs.Forest.ancestor f 3 10);
  Alcotest.(check (option int)) "ancestor at depth 1" (Some 1)
    (Graphs.Forest.ancestor_at_depth f 3 1);
  Alcotest.(check (option int)) "no ancestor deeper than node" None
    (Graphs.Forest.ancestor_at_depth f 1 2);
  check_bool "is_ancestor" true (Graphs.Forest.is_ancestor f ~anc:0 ~of_:3);
  check_bool "not ancestor" false (Graphs.Forest.is_ancestor f ~anc:2 ~of_:3);
  Alcotest.(check (list int)) "roots" [ 0 ] (Graphs.Forest.roots f);
  check_int "max depth" 2 (Graphs.Forest.max_depth f)

let coloring_proper =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"tfa coloring is proper on the input graph" ~count:20
       QCheck.(pair (int_range 0 1000) (int_range 4 40))
       (fun (seed, n) ->
         let g = Graphs.Gen.random_sparse ~seed ~n ~avg_deg:3 in
         let c = Graphs.Tfa.low_treedepth_coloring g ~p:2 in
         List.for_all
           (fun (u, v) -> c.Graphs.Tfa.color.(u) <> c.Graphs.Tfa.color.(v))
           (Graphs.Graph.edges g)))

let color_subsets_count () =
  let subs = Graphs.Tfa.color_subsets ~num_colors:5 ~p:2 in
  (* C(5,1) + C(5,2) = 5 + 10 *)
  check_int "subsets of size <= 2" 15 (List.length subs)

let rand_deterministic () =
  let a = Graphs.Rand.create 7 and b = Graphs.Rand.create 7 in
  check_bool "same stream" true
    (List.for_all
       (fun _ -> Graphs.Rand.int a 1000 = Graphs.Rand.int b 1000)
       (List.init 100 Fun.id));
  let r = Graphs.Rand.create 9 in
  check_bool "bounded" true
    (List.for_all
       (fun _ ->
         let x = Graphs.Rand.int r 17 in
         x >= 0 && x < 17)
       (List.init 1000 Fun.id))

let suite =
  [
    Alcotest.test_case "generator shapes" `Quick generator_shapes;
    bounded_degree_respected;
    trees_are_trees;
    Alcotest.test_case "induced subgraph" `Quick induced_subgraph;
    degeneracy_orientation;
    Alcotest.test_case "known degeneracies" `Quick grid_degeneracy;
    dfs_forest_props;
    elim_forest_props;
    Alcotest.test_case "center-removal forests unchanged" `Quick elim_forest_digests;
    Alcotest.test_case "forest navigation" `Quick forest_navigation;
    coloring_proper;
    Alcotest.test_case "color subsets" `Quick color_subsets_count;
    Alcotest.test_case "deterministic prng" `Quick rand_deterministic;
  ]
