(* Tests for bi-directional iterators and doubly-linked lists (paper §5). *)

open Enum

let check_ilist = Alcotest.(check (list int))
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let of_list_roundtrip () =
  check_ilist "forward" [ 1; 2; 3 ] (Iter.to_list (Iter.of_list [ 1; 2; 3 ]));
  check_ilist "empty" [] (Iter.to_list (Iter.of_list []));
  check_ilist "backward" [ 3; 2; 1 ] (Iter.to_list_rev (Iter.of_list [ 1; 2; 3 ]))

let cyclic_wraparound () =
  let it = Iter.of_list [ 10; 20 ] in
  Iter.next it;
  Alcotest.(check (option int)) "first" (Some 10) (Iter.current it);
  Iter.next it;
  Alcotest.(check (option int)) "second" (Some 20) (Iter.current it);
  Iter.next it;
  Alcotest.(check (option int)) "bottom" None (Iter.current it);
  Iter.next it;
  Alcotest.(check (option int)) "wrapped to first" (Some 10) (Iter.current it);
  Iter.prev it;
  Alcotest.(check (option int)) "back to bottom" None (Iter.current it);
  Iter.prev it;
  Alcotest.(check (option int)) "back to last" (Some 20) (Iter.current it)

let concat_skips_empty () =
  let it = Iter.concat [ Iter.of_list []; Iter.of_list [ 1 ]; Iter.empty; Iter.of_list [ 2; 3 ] ] in
  check_ilist "concat" [ 1; 2; 3 ] (Iter.to_list it);
  Iter.reset it;
  check_ilist "concat again after reset" [ 1; 2; 3 ] (Iter.to_list it);
  check_ilist "concat backward" [ 3; 2; 1 ] (Iter.to_list_rev it);
  check_bool "emptiness" true (Iter.is_empty (Iter.concat [ Iter.empty; Iter.of_list [] ]))

(* concat_init builds a part only when the concatenation first enters it,
   once, and never a skipped one; both directions and a reset keep the
   parts built so far. *)
let concat_init_builds_on_entry () =
  let parts = [| [ 1 ]; []; [ 2; 3 ]; [ 4 ] |] in
  let built = Array.make (Array.length parts) 0 in
  let it =
    Iter.concat_init (Array.length parts)
      ~skip:(fun j -> parts.(j) = [])
      (fun j ->
        built.(j) <- built.(j) + 1;
        Iter.of_list parts.(j))
  in
  check_bool "not empty" false (Iter.is_empty it);
  check_ilist "nothing built before moving" [ 0; 0; 0; 0 ] (Array.to_list built);
  Iter.next it;
  check_ilist "the first part only" [ 1; 0; 0; 0 ] (Array.to_list built);
  check_ilist "concat_init" [ 1; 2; 3; 4 ] (Iter.to_list it);
  check_ilist "backward" [ 4; 3; 2; 1 ] (Iter.to_list_rev it);
  check_ilist "each entered part built once, the skipped one never" [ 1; 0; 1; 1 ]
    (Array.to_list built);
  let last = Iter.concat_init 3 ~skip:(fun j -> j < 2) (fun _ -> Iter.of_list [ 7 ]) in
  Iter.prev last;
  Alcotest.(check (option int)) "prev enters the last part" (Some 7) (Iter.current last);
  check_bool "all skipped: empty" true
    (Iter.is_empty (Iter.concat_init 2 ~skip:(fun _ -> true) (fun _ -> assert false)))

let product_lexicographic () =
  let p = Iter.product (Iter.of_list [ 1; 2 ]) (Iter.of_list [ 10; 20; 30 ]) in
  Alcotest.(check (list (pair int int)))
    "product order"
    [ (1, 10); (1, 20); (1, 30); (2, 10); (2, 20); (2, 30) ]
    (Iter.to_list p);
  Alcotest.(check (list (pair int int)))
    "product backward"
    [ (2, 30); (2, 20); (2, 10); (1, 30); (1, 20); (1, 10) ]
    (Iter.to_list_rev p);
  check_bool "product with empty" true (Iter.is_empty (Iter.product Iter.empty (Iter.of_list [ 1 ])));
  check_ilist "product with empty drains to nothing" []
    (List.map fst (Iter.to_list (Iter.product (Iter.of_list [ 1 ]) (Iter.of_list ([] : int list)))))

let map_works () =
  check_ilist "map" [ 2; 4; 6 ] (Iter.to_list (Iter.map (fun x -> 2 * x) (Iter.of_list [ 1; 2; 3 ])))

let dep_product_works () =
  (* inner depends on outer; all inners nonempty as required *)
  let it =
    Iter.dep_product (Iter.of_list [ 1; 2; 3 ]) (fun a -> Iter.of_list [ a * 10; a * 10 + 1 ])
  in
  Alcotest.(check (list (pair int int)))
    "dep_product"
    [ (1, 10); (1, 11); (2, 20); (2, 21); (3, 30); (3, 31) ]
    (Iter.to_list it);
  Alcotest.(check (list (pair int int)))
    "dep_product backward"
    [ (3, 31); (3, 30); (2, 21); (2, 20); (1, 11); (1, 10) ]
    (Iter.to_list_rev it)

(* a deferred cursor over [l] and the number of times it was built *)
let counted_deferred l =
  let builds = ref 0 in
  let it =
    Iter.deferred (fun () ->
        incr builds;
        Iter.of_list l)
  in
  (it, builds)

let deferred_builds_nothing_before_moving () =
  let it, builds = counted_deferred [ 1; 2; 3 ] in
  check_bool "known non-empty" false (Iter.is_empty it);
  Alcotest.(check (option int)) "at bottom" None (Iter.current it);
  Iter.reset it;
  check_int "not built by is_empty, current or reset" 0 !builds;
  Iter.next it;
  Alcotest.(check (option int)) "first" (Some 1) (Iter.current it);
  check_int "built at the first movement" 1 !builds

let deferred_builds_once () =
  let it, builds = counted_deferred [ 1; 2; 3 ] in
  check_ilist "first pass" [ 1; 2; 3 ] (Iter.to_list it);
  Iter.reset it;
  check_ilist "second pass" [ 1; 2; 3 ] (Iter.to_list it);
  check_ilist "backward pass" [ 3; 2; 1 ] (Iter.to_list_rev it);
  check_int "one build across resets" 1 !builds;
  (* inside a product the inner cursor is reset once per outer element *)
  let inner, inner_builds = counted_deferred [ 10; 20 ] in
  check_int "product through a deferred cursor" 6
    (Iter.length (Iter.product (Iter.of_list [ 1; 2; 3 ]) inner));
  check_int "inner built once" 1 !inner_builds

let deferred_forward_is_reverse_of_backward () =
  let fwd, _ = counted_deferred [ 4; 5; 6; 7 ] and bwd, _ = counted_deferred [ 4; 5; 6; 7 ] in
  check_ilist "backward first" [ 7; 6; 5; 4 ] (Iter.to_list_rev bwd);
  check_ilist "forward = reverse of backward" (List.rev (Iter.to_list_rev bwd)) (Iter.to_list fwd)

let deferred_partial_pass_then_reset () =
  let it, _ = counted_deferred [ 1; 2; 3; 4 ] in
  Iter.next it;
  Iter.next it;
  Iter.prev it;
  Iter.reset it;
  let fresh, _ = counted_deferred [ 1; 2; 3; 4 ] in
  check_ilist "after a partial pass and reset" (Iter.to_list fresh) (Iter.to_list it)

let nested_products () =
  let triple =
    Iter.product (Iter.of_list [ 0; 1 ]) (Iter.product (Iter.of_list [ 0; 1 ]) (Iter.of_list [ 0; 1 ]))
  in
  check_int "8 binary triples" 8 (Iter.length triple)

let dll_ops () =
  let d = Dll.create () in
  let n1 = Dll.push_back d 1 in
  let _n2 = Dll.push_back d 2 in
  let n3 = Dll.push_back d 3 in
  check_ilist "dll contents" [ 1; 2; 3 ] (Dll.to_list d);
  Dll.remove d n1;
  check_ilist "after removing head" [ 2; 3 ] (Dll.to_list d);
  Dll.remove d n3;
  check_ilist "after removing tail" [ 2 ] (Dll.to_list d);
  check_int "length" 1 (Dll.length d);
  let n4 = Dll.push_back d 4 in
  check_ilist "after push" [ 2; 4 ] (Dll.to_list d);
  Dll.remove d n4;
  Alcotest.check_raises "double remove rejected" (Invalid_argument "Dll.remove: node not in this list")
    (fun () -> Dll.remove d n4)

let dll_iter () =
  let d = Dll.create () in
  List.iter (fun v -> ignore (Dll.push_back d v)) [ 5; 6; 7 ];
  check_ilist "iterate dll" [ 5; 6; 7 ] (Iter.to_list (Iter.of_dll d));
  check_ilist "iterate dll backward" [ 7; 6; 5 ] (Iter.to_list_rev (Iter.of_dll d))

let qcheck_product_count =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"product length = product of lengths"
       QCheck.(pair (list_of_size Gen.(0 -- 8) small_int) (list_of_size Gen.(0 -- 8) small_int))
       (fun (a, b) ->
         Iter.length (Iter.product (Iter.of_list a) (Iter.of_list b))
         = List.length a * List.length b))

let qcheck_concat_order =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"concat = list append"
       QCheck.(pair (small_list small_int) (small_list small_int))
       (fun (a, b) ->
         Iter.to_list (Iter.concat [ Iter.of_list a; Iter.of_list b ]) = a @ b))

let qcheck_bidirectional =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"backward = reverse of forward" QCheck.(small_list small_int)
       (fun l ->
         let it = Iter.of_list l in
         Iter.to_list_rev it = List.rev (Iter.to_list it)))

let suite =
  [
    Alcotest.test_case "of_list roundtrip" `Quick of_list_roundtrip;
    Alcotest.test_case "cyclic wraparound" `Quick cyclic_wraparound;
    Alcotest.test_case "concat skips empty" `Quick concat_skips_empty;
    Alcotest.test_case "concat_init builds a part on entry" `Quick concat_init_builds_on_entry;
    Alcotest.test_case "product lexicographic" `Quick product_lexicographic;
    Alcotest.test_case "map" `Quick map_works;
    Alcotest.test_case "dep_product" `Quick dep_product_works;
    Alcotest.test_case "deferred: nothing built before moving" `Quick
      deferred_builds_nothing_before_moving;
    Alcotest.test_case "deferred: built once across resets" `Quick deferred_builds_once;
    Alcotest.test_case "deferred: forward = reverse of backward" `Quick
      deferred_forward_is_reverse_of_backward;
    Alcotest.test_case "deferred: partial pass then reset" `Quick deferred_partial_pass_then_reset;
    Alcotest.test_case "nested products" `Quick nested_products;
    Alcotest.test_case "dll operations" `Quick dll_ops;
    Alcotest.test_case "dll iteration" `Quick dll_iter;
    qcheck_product_count;
    qcheck_concat_order;
    qcheck_bidirectional;
  ]
