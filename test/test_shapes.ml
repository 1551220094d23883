(* Deeper tests of the shape compiler internals (Lemmas 29-33) and a
   property check of the enumerated provenance against the explicit free
   semiring, plus the heap-based selection permanent from the closing
   remark of Section 4. *)

open Semiring

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let v x = Logic.Term.Var x

let nat_ops = Intf.ops_of_module (module Instances.Nat)

(* --- shape enumeration structure --- *)

let summand_of expr =
  match Logic.Normal.of_expr expr with
  | [ s ] -> s
  | _ -> Alcotest.fail "expected one summand"

let chain_forced_by_edges () =
  (* E(x,y) ∧ E(y,z) ∧ E(z,x) forces all three chains pairwise comparable *)
  let s =
    summand_of
      (Logic.Expr.Sum
         ( [ "x"; "y"; "z" ],
           Logic.Expr.Guard
             (Logic.Formula.And
                [
                  Logic.Formula.Rel ("E", [ v "x"; v "y" ]);
                  Logic.Formula.Rel ("E", [ v "y"; v "z" ]);
                  Logic.Formula.Rel ("E", [ v "z"; v "x" ]);
                ]) ))
  in
  let shapes = Shapes.Shape.enumerate ~d:3 ~summand:s () in
  check_bool "some shapes" true (shapes <> []);
  (* every shape is a single chain: exactly one root, nodes totally ordered *)
  List.iter
    (fun (sh : Shapes.Shape.t) ->
      check_int "single root" 1 (List.length sh.Shapes.Shape.roots);
      Array.iter
        (fun (n : Shapes.Shape.node) ->
          check_bool "at most one child on a chain" true
            (List.length n.Shapes.Shape.children <= 1))
        sh.Shapes.Shape.nodes)
    shapes

let distinctness_shapes () =
  (* Σ_{x,y} [x ≠ y] u(x) u(y) at depth 0: only the two-roots shape *)
  let s =
    summand_of
      (Logic.Expr.Sum
         ( [ "x"; "y" ],
           Logic.Expr.Mul
             [
               Logic.Expr.Guard (Logic.Formula.neq (v "x") (v "y"));
               Logic.Expr.Weight ("u", [ v "x" ]);
               Logic.Expr.Weight ("u", [ v "y" ]);
             ] ))
  in
  let shapes = Shapes.Shape.enumerate ~d:0 ~summand:s () in
  check_int "one live shape" 1 (List.length shapes);
  let sh = List.hd shapes in
  check_int "two roots" 2 (List.length sh.Shapes.Shape.roots);
  (* and the permanent gate it compiles to computes Σ_{i≠j} u_i u_j *)
  let forest = Graphs.Forest.of_parents [| 0; 1; 2 |] in
  let fs =
    {
      Shapes.Forest_compile.forest;
      orig = [| 0; 1; 2 |];
      color = [| 0; 0; 0 |];
      holds = (fun _ _ -> true);
      dynamic = (fun _ -> false);
    }
  in
  let b = Circuits.Circuit.builder () in
  let g = Option.get (Shapes.Forest_compile.compile_shape b fs ~zero:0 ~one:1 ~colors:[] sh) in
  let c = Circuits.Circuit.finish b ~output:g in
  let value = Circuits.Circuit.eval nat_ops c (fun (_, t) -> List.hd t + 1) in
  (* u = [1;2;3]: Σ_{i≠j} u_i u_j = (1+2+3)^2 − (1+4+9) = 22 *)
  check_int "permanent value" 22 value

let equality_shapes () =
  (* [x = y] collapses the two variables onto one node *)
  let s =
    summand_of
      (Logic.Expr.Sum
         ( [ "x"; "y" ],
           Logic.Expr.Mul
             [
               Logic.Expr.Guard (Logic.Formula.Eq (v "x", v "y"));
               Logic.Expr.Weight ("u", [ v "x" ]);
               Logic.Expr.Weight ("u", [ v "y" ]);
             ] ))
  in
  List.iter
    (fun (sh : Shapes.Shape.t) ->
      match sh.Shapes.Shape.var_node with
      | [ (_, nx); (_, ny) ] -> check_int "same node" nx ny
      | _ -> Alcotest.fail "expected two variables")
    (Shapes.Shape.enumerate ~d:2 ~summand:s ());
  (* and at depth d there are exactly d+1 such shapes *)
  check_int "d+1 shapes" 3 (List.length (Shapes.Shape.enumerate ~d:2 ~summand:s ()))

(* The color map is checked per shape node. With [x = y] at depth 0 the
   only shape puts both variables on one node: different colors for
   them leave nothing to embed, and equal colors give the same gate as
   coloring one of them. *)
let color_map_per_node () =
  let s =
    summand_of
      (Logic.Expr.Sum
         ( [ "x"; "y" ],
           Logic.Expr.Mul
             [
               Logic.Expr.Guard (Logic.Formula.Eq (v "x", v "y"));
               Logic.Expr.Weight ("u", [ v "x" ]);
               Logic.Expr.Weight ("u", [ v "y" ]);
             ] ))
  in
  let sh = List.hd (Shapes.Shape.enumerate ~d:0 ~summand:s ()) in
  let x, y =
    match sh.Shapes.Shape.var_node with
    | [ (x, nx); (y, ny) ] when nx = ny -> (x, y)
    | _ -> Alcotest.fail "expected two variables on one node"
  in
  let fs =
    {
      Shapes.Forest_compile.forest = Graphs.Forest.of_parents [| 0; 1; 2 |];
      orig = [| 0; 1; 2 |];
      color = [| 0; 1; 0 |];
      holds = (fun _ _ -> true);
      dynamic = (fun _ -> false);
    }
  in
  let compile colors =
    let b = Circuits.Circuit.builder () in
    Option.map
      (fun g -> Circuits.Circuit.finish b ~output:g)
      (Shapes.Forest_compile.compile_shape b fs ~zero:0 ~one:1 ~colors sh)
  in
  check_bool "different colors: None" true (compile [ (x, 0); (y, 1) ] = None);
  let both = Option.get (compile [ (x, 0); (y, 0) ]) in
  let one = Option.get (compile [ (x, 0) ]) in
  check_bool "same colors = one colored variable" true
    (both.Circuits.Circuit.nodes = one.Circuits.Circuit.nodes
    && both.Circuits.Circuit.output = one.Circuits.Circuit.output);
  (* u = [1;2;3], elements 0 and 2 have color 0: 1² + 3² *)
  check_int "value" 10 (Circuits.Circuit.eval nat_ops both (fun (_, t) -> List.hd t + 1))

(* --- provenance: enumerated = explicit, property-tested --- *)

module FreeInt = struct
  type t = int Provenance.Free.mono list

  let zero : t = []
  let one : t = [ [] ]
  let add = Provenance.Free.Explicit.add
  let mul = Provenance.Free.Explicit.mul
  let equal : t -> t -> bool = ( = )
  let pp fmt (x : t) = Format.fprintf fmt "<%d monomials>" (List.length x)
end

let prov_matches_explicit =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"enumerated provenance = explicit free semiring" ~count:25
       QCheck.(pair (int_range 0 10000) (int_range 4 12))
       (fun (seed, n) ->
         let g = Graphs.Gen.random_sparse ~seed ~n ~avg_deg:3 in
         let inst = Db.Instance.of_graph g in
         (* 2-path provenance: Σ_{x,y,z} w(x,y) · w(y,z) *)
         let expr =
           Logic.Expr.Sum
             ( [ "x"; "y"; "z" ],
               Logic.Expr.Mul
                 [
                   Logic.Expr.Weight ("w", [ v "x"; v "y" ]);
                   Logic.Expr.Weight ("w", [ v "y"; v "z" ]);
                 ] )
         in
         let edge_id tup = match tup with [ a; b ] -> (a * 1000) + b | _ -> -1 in
         let w = Db.Weights.create ~name:"w" ~arity:2 ~zero:FreeInt.zero in
         Db.Weights.fill_from_relation w inst "E" (fun tup -> [ [ edge_id tup ] ]);
         let expected =
           Logic.Expr.eval (module FreeInt) inst (Db.Weights.bundle [ w ]) expr ()
         in
         let prov =
           Provenance.Prov_circuit.prepare inst expr ~weight:(fun _ tup ->
               if Db.Instance.mem inst "E" tup then [ [ edge_id tup ] ] else [])
         in
         let got =
           List.sort compare (Enum.Iter.to_list (Provenance.Prov_circuit.enumerate prov))
         in
         got = expected))

(* --- heap-based selection permanent (Section 4, closing remark) --- *)

let minheap_basics () =
  let h = Perm.Minheap.create ~cmp:compare [| 5; 3; 8; 1; 9 |] in
  check_int "min" 1 (Perm.Minheap.min_value h);
  check_int "argmin" 3 (Perm.Minheap.argmin h);
  Perm.Minheap.set h 3 100;
  check_int "after raising the min" 3 (Perm.Minheap.min_value h);
  Perm.Minheap.set h 4 0;
  check_int "after lowering another" 0 (Perm.Minheap.min_value h);
  check_int "its index" 4 (Perm.Minheap.argmin h);
  check_int "get" 100 (Perm.Minheap.get h 3)

let minheap_tracks_random_updates =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"minheap min = array min under updates" ~count:50
       QCheck.(
         pair
           (array_of_size Gen.(1 -- 40) (int_range 0 1000))
           (small_list (pair (int_range 0 39) (int_range 0 1000))))
       (fun (arr, updates) ->
         let h = Perm.Minheap.create ~cmp:compare arr in
         let arr = Array.copy arr in
         List.for_all
           (fun (i, x) ->
             let i = i mod Array.length arr in
             arr.(i) <- x;
             Perm.Minheap.set h i x;
             Perm.Minheap.min_value h = Array.fold_left min max_int arr)
           updates))

let heap_sort_via_selection () =
  (* the Proposition 14 connection once more, now with O(1) queries *)
  let rng = Graphs.Rand.create 123 in
  let keys = Array.init 1000 (fun _ -> Graphs.Rand.int rng 100000) in
  let h = Perm.Minheap.create ~cmp:compare keys in
  let out =
    Array.init 1000 (fun _ ->
        let m = Perm.Minheap.min_value h in
        Perm.Minheap.set h (Perm.Minheap.argmin h) max_int;
        m)
  in
  let sorted = Array.copy keys in
  Array.sort compare sorted;
  check_bool "sorted" true (out = sorted)

let suite =
  [
    Alcotest.test_case "edges force a chain" `Quick chain_forced_by_edges;
    Alcotest.test_case "distinctness shape + permanent" `Quick distinctness_shapes;
    Alcotest.test_case "equality collapses nodes" `Quick equality_shapes;
    Alcotest.test_case "color map checked per shape node" `Quick color_map_per_node;
    prov_matches_explicit;
    Alcotest.test_case "minheap basics" `Quick minheap_basics;
    minheap_tracks_random_updates;
    Alcotest.test_case "heap sort via selection permanent" `Quick heap_sort_via_selection;
  ]
