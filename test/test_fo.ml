(* Tests for Theorem 22 (provenance iterators) and Theorem 24 (constant-
   delay enumeration of FO answers, static and dynamic). *)

(* The explicit free semiring over string generators, as a module for the
   brute-force reference evaluator. *)
module FreeStr = struct
  type t = string Provenance.Free.mono list

  let zero : t = Provenance.Free.Explicit.zero
  let one : t = Provenance.Free.Explicit.one
  let add = Provenance.Free.Explicit.add
  let mul = Provenance.Free.Explicit.mul
  let equal = Provenance.Free.Explicit.equal
  let pp fmt x = Provenance.Free.Explicit.pp Format.pp_print_string fmt x
end

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let v x = Logic.Term.Var x
let e x y = Logic.Formula.Rel ("E", [ v x; v y ])

(* Example 21: directed graph a,b,c,d with edges ab, bc, ca, bd, da *)
let example21 () =
  let inst = Db.Instance.create Db.Schema.graph_schema ~n:4 in
  (* a=0 b=1 c=2 d=3 *)
  List.iter (fun t -> Db.Instance.add inst "E" t) [ [ 0; 1 ]; [ 1; 2 ]; [ 2; 0 ]; [ 1; 3 ]; [ 3; 0 ] ];
  inst

let edge_name = function
  | [ a; b ] -> Printf.sprintf "e%d%d" a b
  | _ -> assert false

let triangle_prov_expr =
  Logic.Expr.Sum
    ( [ "x"; "y"; "z" ],
      Logic.Expr.Mul
        [
          Logic.Expr.Weight ("w", [ v "x"; v "y" ]);
          Logic.Expr.Weight ("w", [ v "y"; v "z" ]);
          Logic.Expr.Weight ("w", [ v "z"; v "x" ]);
        ] )

(* weights nonzero only on E-tuples, value = the edge identifier *)
let prov_weights inst =
  let w = Db.Weights.create ~name:"w" ~arity:2 ~zero:FreeStr.zero in
  Db.Weights.fill_from_relation w inst "E" (fun tup ->
      Provenance.Free.Explicit.of_mono [ edge_name tup ]);
  Db.Weights.bundle [ w ]

let provenance_example21 () =
  let inst = example21 () in
  (* reference: brute-force evaluation in the explicit free semiring *)
  let expected =
    Logic.Expr.eval (module FreeStr) inst (prov_weights inst) triangle_prov_expr ()
  in
  (* enumerated: Theorem 22 through circuits and iterator permanents *)
  let prov =
    Provenance.Prov_circuit.prepare inst triangle_prov_expr ~weight:(fun _w tuple ->
        if Db.Instance.mem inst "E" tuple then [ [ edge_name tuple ] ] else [])
  in
  let monomials = Enum.Iter.to_list (Provenance.Prov_circuit.enumerate prov) in
  let got = List.sort compare monomials in
  Alcotest.(check (list (list string))) "triangle provenance" expected got;
  (* the two directed triangles abc and abd, each in 3 rotations *)
  check_int "six monomials" 6 (List.length got);
  check_bool "contains eab·ebc·eca" true
    (List.mem (List.sort compare [ "e01"; "e12"; "e20" ]) got);
  check_bool "contains eab·ebd·eda" true
    (List.mem (List.sort compare [ "e01"; "e13"; "e30" ]) got)

let provenance_update () =
  let inst = example21 () in
  let prov =
    Provenance.Prov_circuit.prepare inst triangle_prov_expr ~weight:(fun _w tuple ->
        if Db.Instance.mem inst "E" tuple then [ [ edge_name tuple ] ] else [])
  in
  (* kill edge bc: triangle abc disappears *)
  Provenance.Prov_circuit.update prov "w" [ 1; 2 ] [];
  let got = List.sort compare (Enum.Iter.to_list (Provenance.Prov_circuit.enumerate prov)) in
  check_int "three monomials left" 3 (List.length got);
  check_bool "abd survives" true (List.mem (List.sort compare [ "e01"; "e13"; "e30" ]) got);
  (* restore with a renamed identifier *)
  Provenance.Prov_circuit.update prov "w" [ 1; 2 ] [ [ "FRESH" ] ];
  let got = List.sort compare (Enum.Iter.to_list (Provenance.Prov_circuit.enumerate prov)) in
  check_int "six again" 6 (List.length got);
  check_bool "renamed edge appears" true
    (List.mem (List.sort compare [ "e01"; "FRESH"; "e20" ]) got)

(* --- Theorem 24: FO enumeration --- *)

let brute_answers inst fv phi =
  let n = Db.Instance.n inst in
  let rec go env = function
    | [] -> if Logic.Formula.holds inst env phi then [ List.map (fun x -> List.assoc x env) fv ] else []
    | x :: rest ->
        List.concat_map (fun a -> go ((x, a) :: env) rest) (List.init n Fun.id)
  in
  List.sort compare (go [] fv)

let suite_graphs =
  [
    ("grid3x4", Graphs.Gen.grid 3 4);
    ("cycle7", Graphs.Gen.cycle 7);
    ("tri-grid3x3", Graphs.Gen.triangulated_grid 3 3);
    ("rand", Graphs.Gen.random_sparse ~seed:5 ~n:12 ~avg_deg:3);
    ("K4", Graphs.Gen.complete 4);
  ]

let enum_query name phi () =
  List.iter
    (fun (gname, g) ->
      let inst = Db.Instance.of_graph g in
      let t = Fo_enum.prepare inst phi in
      let fv = Fo_enum.free_vars t in
      let got = List.sort compare (List.map Array.to_list (Fo_enum.answers t)) in
      Alcotest.(check (list (list int)))
        (Printf.sprintf "%s on %s" name gname)
        (brute_answers inst fv phi) got;
      check_int
        (Printf.sprintf "%s on %s: distinct" name gname)
        (List.length got)
        (List.length (List.sort_uniq compare got)))
    suite_graphs

let phi_edges = e "x" "y"

let phi_triangle = Logic.Formula.And [ e "x" "y"; e "y" "z"; e "z" "x" ]

let phi_nonedge =
  Logic.Formula.And [ Logic.Formula.neq (v "x") (v "y"); Logic.Formula.Not (e "x" "y") ]

let phi_path2 =
  Logic.Formula.And [ e "x" "y"; e "y" "z"; Logic.Formula.neq (v "x") (v "z") ]

(* guarded quantification: x with a neighbor that has degree ≥ 2, via
   materialization of ∃z (E(y,z) ∧ z ≠ x) — wait, that has two free vars;
   use a purely guarded one instead: ∃y E(x,y) *)
let phi_has_neighbor = Logic.Formula.Exists ("y", e "x" "y")

let phi_isolated = Logic.Formula.Not (Logic.Formula.Exists ("y", e "x" "y"))

let materialization () =
  let g = Graphs.Gen.star 6 in
  let inst = Db.Instance.of_graph g in
  (* add an isolated vertex by building a bigger instance *)
  let inst2 = Db.Instance.create Db.Schema.graph_schema ~n:8 in
  Db.Instance.iter_tuples inst "E" (fun t -> Db.Instance.add inst2 "E" t);
  let t = Fo_enum.prepare inst2 phi_has_neighbor in
  check_int "vertices with neighbors" 6 (List.length (Fo_enum.answers t));
  let t2 = Fo_enum.prepare inst2 phi_isolated in
  check_int "isolated vertices" 2 (List.length (Fo_enum.answers t2))

let dynamic_enum () =
  let g = Graphs.Gen.grid 3 3 in
  let inst = Db.Instance.of_graph g in
  let gaifman = Db.Instance.gaifman inst in
  let t = Fo_enum.prepare ~dynamic:true inst phi_path2 in
  let reference inst = brute_answers inst (Fo_enum.free_vars t) phi_path2 in
  let check_now msg inst' =
    Alcotest.(check (list (list int)))
      msg (reference inst')
      (List.sort compare (List.map Array.to_list (Fo_enum.answers t)))
  in
  (* removing and re-adding edges preserves the (initial) Gaifman graph *)
  Fo_enum.set_tuple t ~gaifman "E" [ 0; 1 ] false;
  check_now "after removing 0→1" (Fo_enum.instance t);
  Fo_enum.set_tuple t ~gaifman "E" [ 0; 1 ] true;
  check_now "after re-adding 0→1" (Fo_enum.instance t);
  Fo_enum.set_tuple t ~gaifman "E" [ 1; 0 ] false;
  Fo_enum.set_tuple t ~gaifman "E" [ 3; 4 ] false;
  check_now "after removing two more" (Fo_enum.instance t);
  (* the counting circuit of the same formula, compiled over the edited
     instance, evaluates to the number of enumerated answers *)
  let count_expr = Logic.Expr.Sum (Fo_enum.free_vars t, Logic.Expr.Guard phi_path2) in
  let c, _ = Engine.Compile.compile ~tfa_rounds:1 ~zero:0 ~one:1 (Fo_enum.instance t) count_expr in
  let nat_ops = Semiring.Intf.ops_of_module (module Semiring.Instances.Nat) in
  check_int "counting circuit = answer count"
    (List.length (Fo_enum.answers t))
    (Circuits.Circuit.eval nat_ops c (fun _ -> 0))


(* Re-adding a removed one-way arc keeps the Gaifman graph taken at
   prepare, though it is no longer the current instance's: the update is
   accepted without an explicit [~gaifman]. *)
let set_tuple_readds_one_way_arc () =
  let inst = Db.Instance.create Db.Schema.graph_schema ~n:4 in
  List.iter (fun t -> Db.Instance.add inst "E" t) [ [ 0; 1 ]; [ 1; 2 ]; [ 2; 3 ] ];
  let t = Fo_enum.prepare ~dynamic:true inst phi_path2 in
  Fo_enum.set_tuple t "E" [ 1; 2 ] false;
  check_int "both 2-paths gone" 0 (List.length (Fo_enum.answers t));
  Fo_enum.set_tuple t "E" [ 1; 2 ] true;
  Alcotest.(check (list (list int)))
    "both 2-paths back"
    [ [ 0; 1; 2 ]; [ 1; 2; 3 ] ]
    (List.sort compare (List.map Array.to_list (Fo_enum.answers t)));
  Alcotest.check_raises "a new Gaifman edge is still rejected"
    (Robust.Error (Robust.Bad_input "Fo_enum.set_tuple: tuple would change the Gaifman graph"))
    (fun () -> Fo_enum.set_tuple t "E" [ 0; 2 ] true)

(* The lazy build, counted independently of the host: the cursors built
   from an arc flip to the first answer of a fresh enumerator do not grow
   with the grid, and over a full pass they stay flat per answer. An
   eager build would make both linear in the unfolded circuit. *)
let lazy_build_counts () =
  let built = Obs.counter ~scope:"provenance" "cursors_built" in
  let first_and_per_answer side =
    let inst = Db.Instance.of_graph (Graphs.Gen.grid side side) in
    let t = Fo_enum.prepare ~dynamic:true inst phi_path2 in
    Fo_enum.set_tuple t "E" [ 0; 1 ] false;
    let c0 = Obs.Counter.get built in
    let it = Fo_enum.enumerate t in
    Enum.Iter.next it;
    let first = Obs.Counter.get built - c0 in
    let answers = ref 0 in
    while Enum.Iter.current it <> None do
      incr answers;
      Enum.Iter.next it
    done;
    (first, float_of_int (Obs.Counter.get built - c0) /. float_of_int !answers)
  in
  let sizes = List.map (fun side -> (side, first_and_per_answer side)) [ 8; 16; 32 ] in
  let _, (first8, per8) = List.hd sizes in
  check_bool "cursors are counted" true (first8 > 0);
  List.iter
    (fun (side, (first, per)) ->
      Alcotest.(check bool)
        (Printf.sprintf "side %d: %d cursors to the first answer <= 16" side first)
        true (first <= 16);
      Alcotest.(check bool)
        (Printf.sprintf "side %d: %.2f cursors per answer <= %.2f at side 8" side per per8)
        true (per <= per8 && per <= 8.))
    sizes

let bidirectional_enumeration () =
  let g = Graphs.Gen.grid 3 3 in
  let inst = Db.Instance.of_graph g in
  let t = Fo_enum.prepare inst phi_edges in
  let it = Fo_enum.enumerate t in
  let fwd = List.map Array.to_list (Enum.Iter.to_list it) in
  let bwd = List.map Array.to_list (Enum.Iter.to_list_rev it) in
  Alcotest.(check (list (list int))) "backward = reverse of forward" (List.rev fwd) bwd;
  (* interleave next/prev: one step forward then one back returns to start *)
  Enum.Iter.reset it;
  Enum.Iter.next it;
  let first = Enum.Iter.current it in
  Enum.Iter.next it;
  Enum.Iter.prev it;
  Alcotest.(check bool) "next;next;prev = next" true (Enum.Iter.current it = first)

let suite =
  [
    Alcotest.test_case "provenance of Example 21" `Quick provenance_example21;
    Alcotest.test_case "provenance updates" `Quick provenance_update;
    Alcotest.test_case "enumerate edges" `Quick (enum_query "edges" phi_edges);
    Alcotest.test_case "enumerate triangles" `Quick (enum_query "triangles" phi_triangle);
    Alcotest.test_case "enumerate non-edges" `Quick (enum_query "non-edges" phi_nonedge);
    Alcotest.test_case "enumerate 2-paths" `Quick (enum_query "2-paths" phi_path2);
    Alcotest.test_case "guarded materialization" `Quick materialization;
    Alcotest.test_case "bi-directional enumeration" `Quick bidirectional_enumeration;
    Alcotest.test_case "dynamic enumeration" `Quick dynamic_enum;
    Alcotest.test_case "set_tuple re-adds a one-way arc" `Quick set_tuple_readds_one_way_arc;
    Alcotest.test_case "lazy build: cursors bounded per answer" `Quick lazy_build_counts;
  ]
