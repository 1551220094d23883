(* Tests for bi-directional iterators (paper §5): the frames
   {!Provenance.Prov_circuit} enumerates a circuit through, driven over
   hand-built circuits of input gates whose monomials each test gives. *)

open Enum

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_monos = Alcotest.(check (list (list string)))

module C = Circuits.Circuit

(* The enumerator of the circuit [build b x] makes, where [x i] is the
   input gate whose monomials are [leaves.(i)]: a prepared query whose
   circuit is swapped for the hand-built one. *)
let frames (leaves : string list list array) build =
  let b = C.builder () in
  let out = build b (fun i -> C.input b ("x", [ i ])) in
  let base =
    Provenance.Prov_circuit.prepare
      (Db.Instance.create Db.Schema.graph_schema ~n:1)
      (Logic.Expr.Const true)
      ~weight:(fun _ _ -> [])
  in
  Provenance.Prov_circuit.enumerate
    {
      base with
      Provenance.Prov_circuit.cc = Circuits.Compact.of_circuit (C.finish b ~output:out);
      default = (fun (_, tuple) -> leaves.(List.hd tuple));
    }

(* leaf i holding one single-generator monomial per name *)
let gens names = List.map (fun g -> [ g ]) names

let leaf_roundtrip () =
  let leaf names = frames [| gens names |] (fun _ x -> x 0) in
  check_monos "forward" (gens [ "1"; "2"; "3" ]) (Iter.to_list (leaf [ "1"; "2"; "3" ]));
  check_monos "empty" [] (Iter.to_list (leaf []));
  check_monos "backward" (gens [ "3"; "2"; "1" ]) (Iter.to_list_rev (leaf [ "1"; "2"; "3" ]))

let cyclic_wraparound () =
  let it = frames [| gens [ "10"; "20" ] |] (fun _ x -> x 0) in
  let check_at what want = Alcotest.(check (option (list string))) what want (Iter.current it) in
  Iter.next it;
  check_at "first" (Some [ "10" ]);
  Iter.next it;
  check_at "second" (Some [ "20" ]);
  Iter.next it;
  check_at "bottom" None;
  Iter.next it;
  check_at "wrapped to first" (Some [ "10" ]);
  Iter.prev it;
  check_at "back to bottom" None;
  Iter.prev it;
  check_at "back to last" (Some [ "20" ])

let sum_skips_empty () =
  let it =
    frames
      [| []; gens [ "1" ]; []; gens [ "2"; "3" ] |]
      (fun b x -> C.add b [ x 0; x 1; x 2; x 3 ])
  in
  check_monos "sum" [ [ "1" ]; [ "2" ]; [ "3" ] ] (Iter.to_list it);
  Iter.reset it;
  check_monos "sum again after reset" [ [ "1" ]; [ "2" ]; [ "3" ] ] (Iter.to_list it);
  check_monos "sum backward" [ [ "3" ]; [ "2" ]; [ "1" ] ] (Iter.to_list_rev it);
  check_bool "emptiness" true
    (Iter.is_empty (frames [| []; [] |] (fun b x -> C.add b [ x 0; x 1 ])))

let product_lexicographic () =
  let p =
    frames [| gens [ "a1"; "a2" ]; gens [ "b1"; "b2"; "b3" ] |] (fun b x -> C.mul b [ x 0; x 1 ])
  in
  let pairs =
    [
      [ "a1"; "b1" ]; [ "a1"; "b2" ]; [ "a1"; "b3" ]; [ "a2"; "b1" ]; [ "a2"; "b2" ]; [ "a2"; "b3" ];
    ]
  in
  check_monos "product order, first factor slowest" pairs (Iter.to_list p);
  check_monos "product backward" (List.rev pairs) (Iter.to_list_rev p);
  Iter.next p;
  Iter.next p;
  check_monos "a reset mid-pass starts over" pairs (Iter.to_list p);
  let empty = frames [| []; gens [ "1" ] |] (fun b x -> C.mul b [ x 0; x 1 ]) in
  check_bool "product with empty" true (Iter.is_empty empty);
  check_monos "product with empty drains to nothing" [] (Iter.to_list empty)

(* An n-ary product runs as one odometer: the same order as the
   left-nested binary products, and as a right-nested one. *)
let nested_products () =
  let bits = [| gens [ "a0"; "a1" ]; gens [ "b0"; "b1" ]; gens [ "c0"; "c1" ] |] in
  let flat = Iter.to_list (frames bits (fun b x -> C.mul b [ x 0; x 1; x 2 ])) in
  check_int "8 binary triples" 8 (List.length flat);
  check_monos "left-nested" flat
    (Iter.to_list (frames bits (fun b x -> C.mul b [ C.mul b [ x 0; x 1 ]; x 2 ])));
  check_monos "right-nested" flat
    (Iter.to_list (frames bits (fun b x -> C.mul b [ x 0; C.mul b [ x 1; x 2 ] ])))

(* A sum keeps one part frame and re-aims it at each part it enters,
   whatever the part's kind: the sum of a product, a leaf, a permanent and
   a product enumerates what each part does alone, in order. Each entered
   non-leaf part counts one cursor per pass, the skipped one none, and a
   second pass allocates no frame. *)
let sum_reaims_one_frame () =
  let leaves = [| gens [ "a"; "b" ]; gens [ "c" ]; []; gens [ "d"; "e" ] |] in
  let parts =
    [
      (fun b x -> C.mul b [ x 0; x 1 ]);
      (fun _ x -> x 3);
      (fun _ x -> x 2);
      (fun b x -> C.perm b [| [| x 0; x 1 |]; [| x 3; x 0 |] |]);
      (fun b x -> C.mul b [ x 3; x 0 ]);
    ]
  in
  let alone = List.concat_map (fun part -> Iter.to_list (frames leaves part)) parts in
  let it = frames leaves (fun b x -> C.add b (List.map (fun part -> part b x) parts)) in
  let built = Obs.counter ~scope:"provenance" "cursors_built"
  and made = Obs.counter ~scope:"provenance" "frames_made" in
  Obs.set_enabled true;
  let c0 = Obs.Counter.get built and f0 = Obs.Counter.get made in
  check_monos "sum = its parts one after another" alone (Iter.to_list it);
  check_int "one cursor per entered non-leaf part" 3 (Obs.Counter.get built - c0);
  let c1 = Obs.Counter.get built and f1 = Obs.Counter.get made in
  check_bool "the first pass makes frames" true (f1 > f0);
  check_monos "backward" (List.rev alone) (Iter.to_list_rev it);
  check_int "a second pass counts the same cursors" 3 (Obs.Counter.get built - c1);
  check_int "a second pass makes no frame" 0 (Obs.Counter.get made - f1)

let leaf_list l = List.map (fun v -> [ string_of_int v ]) l

let qcheck_product_count =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"product length = product of lengths"
       QCheck.(pair (list_of_size Gen.(0 -- 8) small_int) (list_of_size Gen.(0 -- 8) small_int))
       (fun (a, b) ->
         Iter.length
           (frames [| leaf_list a; leaf_list b |] (fun bd x -> C.mul bd [ x 0; x 1 ]))
         = List.length a * List.length b))

let qcheck_sum_order =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"sum = list append"
       QCheck.(pair (small_list small_int) (small_list small_int))
       (fun (a, b) ->
         Iter.to_list (frames [| leaf_list a; leaf_list b |] (fun bd x -> C.add bd [ x 0; x 1 ]))
         = leaf_list (a @ b)))

let qcheck_bidirectional =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"backward = reverse of forward"
       QCheck.(triple (small_list small_int) (small_list small_int) (small_list small_int))
       (fun (a, b, c) ->
         let it =
           frames
             [| leaf_list a; leaf_list b; leaf_list c |]
             (fun bd x -> C.add bd [ C.mul bd [ x 0; x 1 ]; x 2 ])
         in
         Iter.to_list_rev it = List.rev (Iter.to_list it)))

let suite =
  [
    Alcotest.test_case "leaf roundtrip" `Quick leaf_roundtrip;
    Alcotest.test_case "cyclic wraparound" `Quick cyclic_wraparound;
    Alcotest.test_case "sum skips empty" `Quick sum_skips_empty;
    Alcotest.test_case "sum re-aims one part frame" `Quick sum_reaims_one_frame;
    Alcotest.test_case "product lexicographic" `Quick product_lexicographic;
    Alcotest.test_case "nested products" `Quick nested_products;
    qcheck_product_count;
    qcheck_sum_order;
    qcheck_bidirectional;
  ]
