(* Tests for bi-directional iterators (paper §5). *)

open Enum

let check_ilist = Alcotest.(check (list int))
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let pair a b = (a, b)

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

(* concat_init builds a part each time the concatenation enters it, in
   either direction, and never a skipped one; it keeps only the part it
   is in, so a part it has left is garbage. *)
let concat_init_builds_on_entry () =
  let parts = [| [ 1 ]; []; [ 2; 3 ]; [ 4 ] |] in
  let built = Array.make (Array.length parts) 0 in
  let held = Weak.create (Array.length parts) in
  let it =
    Iter.concat_init (Array.length parts)
      ~skip:(fun j -> parts.(j) = [])
      (fun j ->
        built.(j) <- built.(j) + 1;
        let p = Iter.of_list parts.(j) in
        Weak.set held j (Some p);
        p)
  in
  check_bool "not empty" false (Iter.is_empty it);
  check_ilist "nothing built before moving" [ 0; 0; 0; 0 ] (Array.to_list built);
  Iter.next it;
  check_ilist "the first part only" [ 1; 0; 0; 0 ] (Array.to_list built);
  Iter.next it;
  Alcotest.(check (option int)) "into the third part" (Some 2) (Iter.current it);
  Gc.full_major ();
  check_bool "the part it left is gone" true (Weak.get held 0 = None);
  check_bool "the part it is in is held" true (Weak.get held 2 <> None);
  Array.fill built 0 (Array.length built) 0;
  check_ilist "concat_init" [ 1; 2; 3; 4 ] (Iter.to_list it);
  check_ilist "backward" [ 4; 3; 2; 1 ] (Iter.to_list_rev it);
  check_ilist "each entered part built once per pass, the skipped one never" [ 2; 0; 2; 2 ]
    (Array.to_list built);
  let last = Iter.concat_init 3 ~skip:(fun j -> j < 2) (fun _ -> Iter.of_list [ 7 ]) in
  Iter.prev last;
  Alcotest.(check (option int)) "prev enters the last part" (Some 7) (Iter.current last);
  check_bool "all skipped: empty" true
    (Iter.is_empty (Iter.concat_init 2 ~skip:(fun _ -> true) (fun _ -> assert false)))

let product_lexicographic () =
  let p = Iter.product pair (Iter.of_list [ 1; 2 ]) (Iter.of_list [ 10; 20; 30 ]) in
  Alcotest.(check (list (pair int int)))
    "product order"
    [ (1, 10); (1, 20); (1, 30); (2, 10); (2, 20); (2, 30) ]
    (Iter.to_list p);
  Alcotest.(check (list (pair int int)))
    "product backward"
    [ (2, 30); (2, 20); (2, 10); (1, 30); (1, 20); (1, 10) ]
    (Iter.to_list_rev p);
  check_bool "product with empty" true (Iter.is_empty (Iter.product pair Iter.empty (Iter.of_list [ 1 ])));
  check_ilist "product with empty drains to nothing" []
    (List.map fst (Iter.to_list (Iter.product pair (Iter.of_list [ 1 ]) (Iter.of_list ([] : int list)))))

let map_works () =
  check_ilist "map" [ 2; 4; 6 ] (Iter.to_list (Iter.map (fun x -> 2 * x) (Iter.of_list [ 1; 2; 3 ])))

let nested_products () =
  let triple =
    Iter.product pair (Iter.of_list [ 0; 1 ]) (Iter.product pair (Iter.of_list [ 0; 1 ]) (Iter.of_list [ 0; 1 ]))
  in
  check_int "8 binary triples" 8 (Iter.length triple)

let qcheck_product_count =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"product length = product of lengths"
       QCheck.(pair (list_of_size Gen.(0 -- 8) small_int) (list_of_size Gen.(0 -- 8) small_int))
       (fun (a, b) ->
         Iter.length (Iter.product pair (Iter.of_list a) (Iter.of_list b))
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
    Alcotest.test_case "nested products" `Quick nested_products;
    qcheck_product_count;
    qcheck_concat_order;
    qcheck_bidirectional;
  ]
