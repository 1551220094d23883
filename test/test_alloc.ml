(* Allocation gates on the update and point-query paths: minor words per
   operation, counted with Gc.minor_words over many calls.
   A word count depends on the code and the compiler, not on the speed
   of the host, so these bounds hold on any 64-bit machine. *)

open Semiring

let nat = Intf.ops_of_module (module Instances.Nat)

(* Average minor words per call of [f] over 4,096 calls, after one
   warm-up call. A multiple of 64 calls takes in the same share of the
   1-in-64 sampled (span-recording) waves whatever the sampler's phase. *)
let words_per f =
  let calls = 4096 in
  f 0;
  let w0 = Gc.minor_words () in
  for i = 1 to calls do
    f i
  done;
  (Gc.minor_words () -. w0) /. float_of_int calls

(* Segment-tree updates allocate nothing: the nodes are one flat array
   merged in place through a per-k table of subset pairs. An average
   under 0.01 words is under 41 words in all: no call allocates. *)
let segtree_sets_allocate_nothing () =
  Obs.set_enabled true;
  for k = 1 to 3 do
    let m = Array.init k (fun r -> Array.init 754 (fun c -> (r + c) mod 7)) in
    let t = Perm.Segtree.create nat m in
    let set =
      words_per (fun i -> Perm.Segtree.set t ~row:(i mod k) ~col:(i * 7919 mod 754) (i land 15))
    in
    let batches = Array.init 16 (fun i -> [ (i mod k, i * 31 mod 754, i) ]) in
    let one_write = words_per (fun i -> Perm.Segtree.set_many t batches.(i land 15)) in
    Alcotest.(check bool)
      (Printf.sprintf "k=%d: set allocates nothing (%.4f words)" k set)
      true (set < 0.01);
    Alcotest.(check bool)
      (Printf.sprintf "k=%d: one-write set_many allocates nothing (%.4f words)" k one_write)
      true (one_write < 0.01)
  done

(* Bounds about 5% above the counts at the time of writing, so that a
   new allocation on a path fails here before it shows in the benchmark:
   General mode 29.9 words per update and 44.4 per point query, Ring
   mode 31.9 per update, Finite mode 21.6 per update and 41.1 per point
   query. *)
let update_bound = 32.
let query_bound = 47.
let ring_update_bound = 34.
let finite_update_bound = 23.
let finite_query_bound = 43.

(* The serving instance: weighted degree f(x) = Σ_y E(x,y)·w(y) on a
   fixed random graph of maximum degree 3, journal off. [of_int] maps the
   weights into the semiring, whose capabilities pick the update mode. *)
let weighted_degree (type a) (ops : a Intf.ops) (of_int : int -> a) =
  let var x = Logic.Term.Var x in
  let expr =
    Logic.Expr.Sum
      ( [ "y" ],
        Logic.Expr.Mul
          [
            Logic.Expr.Guard (Logic.Formula.Rel ("E", [ var "x"; var "y" ]));
            Logic.Expr.Weight ("w", [ var "y" ]);
          ] )
  in
  let inst = Db.Instance.of_graph (Graphs.Gen.random_bounded_degree ~seed:1 ~n:8192 ~max_deg:3) in
  let n = Db.Instance.n inst in
  let w = Db.Weights.create ~name:"w" ~arity:1 ~zero:ops.Intf.zero in
  Db.Weights.fill_unary w ~n (fun i -> of_int (i mod 1000));
  let ev = Engine.Eval.prepare ops inst (Db.Weights.bundle [ w ]) expr in
  let keys = Array.init 4096 (fun i -> [ i * 7919 mod n ]) in
  let values = Array.init 1000 of_int in
  (ev, keys, fun i -> Engine.Eval.update ev "w" keys.(i land 4095) values.(i mod 1000))

let check_words what words bound =
  Alcotest.(check bool) (Printf.sprintf "%s: %.1f words <= %.0f" what words bound) true
    (words <= bound)

(* General mode (naturals, segment-tree permanents): updates and point
   queries. *)
let eval_ops_bounded () =
  Obs.set_enabled true;
  let ev, keys, update = weighted_degree nat Fun.id in
  let update = words_per update in
  let sink = ref 0 in
  let query = words_per (fun i -> sink := !sink + Engine.Eval.query ev keys.(i land 4095)) in
  check_words "Eval.update" update update_bound;
  check_words "Eval.query [x]" query query_bound

(* Ring mode (integers, power-sum permanents, delta-maintained sums) and
   Finite mode (Z/6Z, counting gates and counting permanents): updates. *)
let ring_finite_updates_bounded () =
  Obs.set_enabled true;
  let _, _, update = weighted_degree (Intf.ops_of_ring (module Instances.Int_ring)) Fun.id in
  check_words "Ring-mode Eval.update" (words_per update) ring_update_bound;
  let _, _, update = weighted_degree (Intf.ops_of_finite (module Zmod.Z6)) Zmod.Z6.of_int in
  check_words "Finite-mode Eval.update" (words_per update) finite_update_bound

(* Minor words per point query on the serving instance over [ops]. *)
let query_words (type a) (ops : a Intf.ops) (of_int : int -> a) =
  let ev, keys, _ = weighted_degree ops of_int in
  words_per (fun i -> ignore (Engine.Eval.query ev keys.(i land 4095)))

(* Finite-mode point queries: one what-if wave, reading the counting
   gates and counting permanents on its path through adjusted copies of
   their counts. A Finite-mode query allocates at most 1.2 times what a
   General-mode one does. *)
let finite_query_bounded () =
  Obs.set_enabled true;
  let query = query_words (Intf.ops_of_finite (module Zmod.Z6)) Zmod.Z6.of_int in
  check_words "Finite-mode Eval.query [x]" query finite_query_bound;
  check_words "Finite-mode Eval.query [x] against 1.2 x General mode" query
    (1.2 *. query_words nat Fun.id)

(* Ring-mode point queries: a what-if wave reads each power-sum
   permanent on its path through its one pending write, which adjusts
   the sums meeting the written row in the scratch buffer. A Ring-mode
   query allocates at most 1.2 times what a General-mode one does (about
   219 words, against 44 for General mode, while the read copied the
   sums and the column and sorted the writes). *)
let ring_query_bounded () =
  Obs.set_enabled true;
  let query = query_words (Intf.ops_of_ring (module Instances.Int_ring)) Fun.id in
  check_words "Ring-mode Eval.query [x] against 1.2 x General mode" query
    (1.2 *. query_words nat Fun.id)

(* The churn_ring-shaped instance: weighted triangles Σ_xyz
   [E(x,y) ∧ E(y,z) ∧ E(z,x)]·w(x) over the int ring on the 7×7 grid
   plus the diagonal of every cell with r+c even. *)
let side = 7

let churn_instance () =
  let inst = Db.Instance.of_graph (Graphs.Gen.grid side side) in
  for r = 0 to side - 2 do
    for c = 0 to side - 2 do
      if (r + c) land 1 = 0 then
        Db.Instance.add inst "E" [ (r * side) + c; ((r + 1) * side) + c + 1 ]
    done
  done;
  inst

let weighted_triangles =
  let var x = Logic.Term.Var x in
  let e x y = Logic.Formula.Rel ("E", [ var x; var y ]) in
  Logic.Expr.Sum
    ( [ "x"; "y"; "z" ],
      Logic.Expr.Mul
        [
          Logic.Expr.Guard (Logic.Formula.And [ e "x" "y"; e "y" "z"; e "z" "x" ]);
          Logic.Expr.Weight ("w", [ var "x" ]);
        ] )

(* Shapes depend only on a summand and the forest depth, so a compile
   enumerates them once per (summand, depth) and checks each color map
   per shape node. Before that, every color subset and color map
   re-enumerated them, and this prepare took 83.9M minor words and the
   structural ops below 1.49M each on average; the bounds are a third of
   those. The compile itself must not change: the shape and subset
   counts are the ones recorded then. *)
let prepare_bound = 83.9e6 /. 3.
let structural_bound = 1.49e6 /. 3.

let structural_ops_bounded () =
  Obs.set_enabled true;
  let ring = Intf.ops_of_ring (module Instances.Int_ring) in
  let inst = churn_instance () in
  let n = Db.Instance.n inst in
  let w = Db.Weights.create ~name:"w" ~arity:1 ~zero:0 in
  Db.Weights.fill_unary w ~n (fun i -> (i mod 11) - 5);
  let w0 = Gc.minor_words () in
  let ev = Engine.Eval.prepare ring inst (Db.Weights.bundle [ w ]) weighted_triangles in
  let prepare = Gc.minor_words () -. w0 in
  let meta = ev.Engine.Eval.meta in
  Alcotest.(check int) "shapes" 59439 meta.Engine.Compile.num_shapes;
  Alcotest.(check int) "subsets" 1561 meta.Engine.Compile.num_subsets;
  check_words "Eval.prepare" prepare prepare_bound;
  (* eight cell diagonals, each toggled and toggled back *)
  let ops = 16 in
  let w0 = Gc.minor_words () in
  for i = 0 to ops - 1 do
    let cell = i / 2 * 7 mod ((side - 1) * (side - 1)) in
    let r = cell / (side - 1) and c = cell mod (side - 1) in
    let arc = [ (r * side) + c; ((r + 1) * side) + c + 1 ] in
    if Db.Instance.mem inst "E" arc then Engine.Eval.delete_tuple ev "E" arc
    else Engine.Eval.insert_tuple ev "E" arc
  done;
  let per_op = (Gc.minor_words () -. w0) /. float_of_int ops in
  check_words "structural op" per_op structural_bound;
  Alcotest.(check int) "value = reference"
    (Engine.Reference.eval ring inst (Db.Weights.bundle [ w ]) weighted_triangles)
    (Engine.Eval.value ev)

let suite =
  [
    Alcotest.test_case "segtree set allocates nothing (k=1..3)" `Quick
      segtree_sets_allocate_nothing;
    Alcotest.test_case "General-mode update and point query words bounded" `Quick
      eval_ops_bounded;
    Alcotest.test_case "Ring- and Finite-mode update words bounded" `Quick
      ring_finite_updates_bounded;
    Alcotest.test_case "Finite-mode point query words bounded" `Quick finite_query_bounded;
    Alcotest.test_case "Ring-mode point query words bounded" `Quick ring_query_bounded;
    Alcotest.test_case "structural op and prepare words bounded (churn_ring instance)" `Quick
      structural_ops_bounded;
  ]
