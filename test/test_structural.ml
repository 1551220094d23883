(* Structural updates: tuple insert/delete with localized incremental
   recompile. The spliced circuit must agree exactly with the brute-force
   reference AND with a compile-from-scratch twin after every update; the
   amortization fallback must fire when the treedepth witness outgrows
   the compiled bound; journal replay of mixed weight + structural
   batches must reconstruct the served state; and a fault while the new
   runtime is built — after a localized or a full recompile — must leave
   the pre-update state untouched, as must a rebuild over the compile
   budget. The emitted raw and optimized circuits are pinned by digests,
   and an insert undone by a delete must restore the raw one gate for
   gate. *)

open Semiring

let nat_ops = Intf.ops_of_module (module Instances.Nat)
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let v x = Logic.Term.Var x
let e x y = Logic.Formula.Rel ("E", [ v x; v y ])

let triangle_count =
  Logic.Expr.Sum
    ( [ "x"; "y"; "z" ],
      Logic.Expr.Guard (Logic.Formula.And [ e "x" "y"; e "y" "z"; e "z" "x" ]) )

let edge_weight =
  Logic.Expr.Sum
    ( [ "x"; "y" ],
      Logic.Expr.Mul
        [ Logic.Expr.Guard (e "x" "y"); Logic.Expr.Weight ("w", [ v "x"; v "y" ]) ] )

(* insert/delete an undirected edge = both stored arcs *)
let ins t u w =
  Engine.Eval.insert_tuple t "E" [ u; w ];
  Engine.Eval.insert_tuple t "E" [ w; u ]

let del t u w =
  Engine.Eval.delete_tuple t "E" [ u; w ];
  Engine.Eval.delete_tuple t "E" [ w; u ]

(* after every op: incremental value = reference on the live instance
   = compile-from-scratch on the live instance *)
let agree name t inst weights expr =
  let got = Engine.Eval.value t in
  let reference = Logic.Expr.eval (module Instances.Nat) inst weights expr () in
  check_int (name ^ " vs reference") reference got;
  let scratch = Engine.Eval.evaluate nat_ops inst weights expr in
  check_int (name ^ " vs scratch compile") scratch got

let counter name =
  match Obs.find ~scope:"compile" name with Some (Obs.C c) -> Obs.Counter.get c | _ -> 0

let counting_churn () =
  Obs.set_enabled true;
  let copied0 = counter "gates_copied" and rebuilt0 = counter "gates_rebuilt" in
  let inst = Db.Instance.of_graph (Graphs.Gen.grid 4 4) in
  let weights = Db.Weights.bundle [] in
  let t = Engine.Eval.prepare nat_ops inst weights triangle_count in
  check_int "no triangles in the grid" 0 (Engine.Eval.value t);
  (* diagonals create triangles; removing a side destroys them *)
  ins t 0 5;
  agree "after ins 0-5" t inst weights triangle_count;
  check_bool "grid diagonal makes triangles" true (Engine.Eval.value t > 0);
  ins t 1 6;
  agree "after ins 1-6" t inst weights triangle_count;
  del t 0 1;
  agree "after del 0-1" t inst weights triangle_count;
  ins t 10 15;
  agree "after ins 10-15" t inst weights triangle_count;
  del t 1 6;
  agree "after del 1-6" t inst weights triangle_count;
  let c = Engine.Eval.churn_stats t in
  check_int "inserts counted" 6 c.Engine.Eval.ch_inserts;
  check_int "deletes counted" 4 c.Engine.Eval.ch_deletes;
  (* the in-test localization claim: every op was served by a localized
     recompile, and across the run the compile layer copied more raw
     gates from untouched segments than it re-emitted *)
  check_int "all ops localized" 10 c.Engine.Eval.ch_localized;
  check_int "no fallbacks" 0 c.Engine.Eval.ch_fallbacks;
  let copied = counter "gates_copied" - copied0
  and rebuilt = counter "gates_rebuilt" - rebuilt0 in
  check_bool
    (Printf.sprintf "localized: raw gates rebuilt %d < copied %d" rebuilt copied)
    true (rebuilt < copied)

let weighted_churn () =
  let inst = Db.Instance.of_graph (Graphs.Gen.path 8) in
  let w = Db.Weights.create ~name:"w" ~arity:2 ~zero:0 in
  Db.Weights.fill_from_relation w inst "E" (fun tup -> List.fold_left ( + ) 1 tup);
  let weights = Db.Weights.bundle [ w ] in
  let t = Engine.Eval.prepare nat_ops inst weights edge_weight in
  agree "initial" t inst weights edge_weight;
  (* a structural insert followed by a weight update on the new tuple:
     the spliced circuit must expose the new input key *)
  ins t 2 6;
  Db.Weights.set w [ 2; 6 ] 11;
  Engine.Eval.update t "w" [ 2; 6 ] 11;
  agree "after ins 2-6 + weight" t inst weights edge_weight;
  (* deleting a tuple silences its weight even though the store keeps it *)
  del t 3 4;
  agree "after del 3-4" t inst weights edge_weight;
  (* weight updates on untouched tuples still propagate after the splice *)
  Db.Weights.set w [ 0; 1 ] 9;
  Engine.Eval.update t "w" [ 0; 1 ] 9;
  agree "after weight on untouched edge" t inst weights edge_weight;
  (* and re-inserting a deleted tuple resurrects its (kept) weight *)
  ins t 3 4;
  agree "after re-insert 3-4" t inst weights edge_weight

(* [Eval.circuit] reads the served circuit back from the runtime, so it
   follows every splice: its gate count and input keys are the runtime's,
   it evaluates to the maintained value under the runtime's input values,
   and a key a delete takes out of the circuit keeps its last value in
   the unread table. *)
let served_circuit_follows_splices () =
  let inst = Db.Instance.of_graph (Graphs.Gen.path 8) in
  let w = Db.Weights.create ~name:"w" ~arity:2 ~zero:0 in
  Db.Weights.fill_from_relation w inst "E" (fun tup -> List.fold_left ( + ) 1 tup);
  let t = Engine.Eval.prepare nat_ops inst (Db.Weights.bundle [ w ]) edge_weight in
  let served what =
    let dyn = t.Engine.Eval.dyn in
    let c = Engine.Eval.circuit t in
    check_int (what ^ ": gates") (Circuits.Dyn.num_gates dyn)
      (Engine.Eval.stats t).Circuits.Circuit.gates;
    check_int (what ^ ": value") (Engine.Eval.value t)
      (Circuits.Circuit.eval nat_ops c (fun key ->
           Option.get (Circuits.Dyn.input_value dyn key)));
    c
  in
  let reads c key =
    Array.exists
      (function Circuits.Circuit.Input k -> k = ("w", key) | _ -> false)
      c.Circuits.Circuit.nodes
  in
  check_bool "initial: no 2-6 input" false (reads (served "initial") [ 2; 6 ]);
  ins t 2 6;
  check_bool "after ins 2-6: reads w(2,6)" true (reads (served "after ins 2-6") [ 2; 6 ]);
  Engine.Eval.update t "w" [ 3; 4 ] 13;
  del t 3 4;
  check_bool "after del 3-4: w(3,4) left" false (reads (served "after del 3-4") [ 3; 4 ]);
  check_bool "w(3,4) kept as unread" true
    (Hashtbl.find_opt t.Engine.Eval.unread ("w", [ 3; 4 ]) = Some 13)

(* a write to a weight the circuit does not read is not lost: the
   structural update that brings the weight into the circuit reads the
   last value written, as the reference does, and so does a replay of
   the journal *)
let unread_weight_writes () =
  let inst = Db.Instance.of_graph (Graphs.Gen.path 8) in
  let inst0 = Db.Instance.copy inst in
  let store () =
    let w = Db.Weights.create ~name:"w" ~arity:2 ~zero:0 in
    Db.Weights.fill_from_relation w inst "E" (fun tup -> List.fold_left ( + ) 1 tup);
    Db.Weights.set w [ 2; 6 ] 3;
    (w, Db.Weights.bundle [ w ])
  in
  (* [weights] stays the prepare-time store; [mirror] follows the writes *)
  let _, weights = store () and mirror_w, mirror = store () in
  let t = Engine.Eval.prepare nat_ops inst weights edge_weight in
  let j = Engine.Eval.enable_journal t in
  let write v =
    Engine.Eval.update t "w" [ 2; 6 ] v;
    Db.Weights.set mirror_w [ 2; 6 ] v
  in
  let agree_mirror name =
    check_int name (Logic.Expr.eval (module Instances.Nat) inst mirror edge_weight ())
      (Engine.Eval.value t)
  in
  write 11;
  (* rewriting the value already held is no change: nothing is journaled *)
  let batches = Circuits.Journal.length j in
  write 11;
  check_int "an unchanged unread write is not journaled" batches (Circuits.Journal.length j);
  Engine.Eval.insert_tuple t "E" [ 2; 6 ];
  agree_mirror "write while absent, then insert";
  check_int "the last write counts" 123 (Engine.Eval.value t);
  Engine.Eval.delete_tuple t "E" [ 2; 6 ];
  write 17;
  Engine.Eval.insert_tuple t "E" [ 2; 6 ];
  agree_mirror "delete, write, re-insert";
  check_int "the last write counts again" 129 (Engine.Eval.value t);
  (* a weight that leaves the circuit keeps its last value *)
  write 19;
  Engine.Eval.delete_tuple t "E" [ 2; 6 ];
  Engine.Eval.insert_tuple t "E" [ 2; 6 ];
  agree_mirror "write, delete, re-insert";
  let path = Filename.temp_file "sparseq_test" ".spqj" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Circuits.Journal.save j path;
      let t2 = Engine.Eval.prepare nat_ops inst0 weights edge_weight in
      Engine.Eval.replay t2 (Circuits.Journal.load path);
      check_int "save, load, replay = live" (Engine.Eval.value t) (Engine.Eval.value t2))

(* a duplicate insert / absent delete is a structured error and leaves
   the engine fully intact *)
let bad_deltas_rejected () =
  let inst = Db.Instance.of_graph (Graphs.Gen.path 5) in
  let weights = Db.Weights.bundle [] in
  let t = Engine.Eval.prepare nat_ops inst weights triangle_count in
  let before = Engine.Eval.value t in
  check_bool "duplicate insert rejected" true
    (try
       Engine.Eval.insert_tuple t "E" [ 0; 1 ];
       false
     with Robust.Error (Robust.Bad_input _) -> true);
  check_bool "absent delete rejected" true
    (try
       Engine.Eval.delete_tuple t "E" [ 0; 3 ];
       false
     with Robust.Error (Robust.Bad_input _) -> true);
  check_int "value untouched" before (Engine.Eval.value t);
  agree "still consistent" t inst weights triangle_count

(* growing a treedepth witness past the compiled bound must trip the
   amortization trigger: the update is served by a full recompile with a
   fresh coloring, and stays exactly correct *)
let fallback_on_depth_growth () =
  let inst = Db.Instance.create Db.Schema.graph_schema ~n:8 in
  let weights = Db.Weights.bundle [] in
  (* edgeless start: one color, one subset, forest of roots (depth 0) *)
  let t = Engine.Eval.prepare nat_ops ~max_depth:2 inst weights triangle_count in
  ins t 0 1;
  agree "after first edge" t inst weights triangle_count;
  check_int "single edge stays localized" 0
    (Engine.Eval.churn_stats t).Engine.Eval.ch_fallbacks;
  (* grow the path to 0-…-7 under the pinned single-color witness: any
     elimination forest of P8 has depth ≥ 3 (0-based), so the compiled
     bound of 2 must trip the amortization trigger along the way and
     re-pin a fresh multi-color coloring *)
  for i = 1 to 6 do
    ins t i (i + 1)
  done;
  agree "after path grew" t inst weights triangle_count;
  let c = Engine.Eval.churn_stats t in
  check_bool "fallback triggered" true (c.Engine.Eval.ch_fallbacks > 0);
  (* post-fallback the fresh plan keeps absorbing updates *)
  ins t 0 2;
  agree "triangle after fallback" t inst weights triangle_count;
  check_bool "triangle seen" true (Engine.Eval.value t > 0);
  del t 1 2;
  agree "delete after fallback" t inst weights triangle_count

(* Shapes are enumerated once per (summand, forest depth) and kept in
   the plan's spec. On the 8-path, chords from vertex 0 deepen the
   affected subsets' forests op by op: a localized op that reaches a
   depth the compile never met enumerates that pair mid-run, every pair
   met before keeps its shape list as it was (physically), and the
   full-compile fallback, which recolors the graph, shares the same
   table. The value matches Engine.Reference after every op. *)
let shape_cache_across_churn () =
  let run ?max_depth () =
    let inst = Db.Instance.of_graph (Graphs.Gen.path 8) in
    let weights = Db.Weights.bundle [] in
    let t = Engine.Eval.prepare nat_ops ?max_depth inst weights triangle_count in
    let spec () = t.Engine.Eval.plan.Engine.Compile.pl_spec in
    let table = (spec ()).Engine.Compile.sp_shapes in
    let depths () = Hashtbl.fold (fun (_, d) _ acc -> d :: acc) table [] in
    let depths0 = depths () in
    List.iter
      (fun (a, b) ->
        let before = Hashtbl.fold (fun k shapes acc -> (k, shapes) :: acc) table [] in
        ins t a b;
        let what = Printf.sprintf "ins %d-%d" a b in
        check_int (what ^ " vs reference")
          (Engine.Reference.eval nat_ops inst weights triangle_count)
          (Engine.Eval.value t);
        check_bool (what ^ ": one table") true ((spec ()).Engine.Compile.sp_shapes == table);
        List.iter
          (fun (k, shapes) ->
            check_bool (what ^ ": shapes kept") true (Hashtbl.find table k == shapes))
          before;
        List.iter
          (fun (seg : Engine.Compile.segment) ->
            if seg.Engine.Compile.seg_subset <> None then
              check_bool (what ^ ": segment depth cached") true
                (Hashtbl.mem table (0, seg.Engine.Compile.seg_depth)))
          t.Engine.Eval.plan.Engine.Compile.pl_segments)
      [ (0, 2); (0, 3); (0, 4); (0, 5); (1, 3); (2, 4) ];
    (t, depths0, depths ())
  in
  let t, depths0, depths = run () in
  check_int "localized: no fallback" 0 (Engine.Eval.churn_stats t).Engine.Eval.ch_fallbacks;
  check_bool "localized: a depth first met mid-run" true
    (List.exists (fun d -> not (List.mem d depths0)) depths);
  let t, _, _ = run ~max_depth:2 () in
  check_int "max_depth 2: one fallback" 1 (Engine.Eval.churn_stats t).Engine.Eval.ch_fallbacks

(* replaying a journal of interleaved weight batches and structural ops
   against a fresh prepare on the pre-journal state reconstructs the
   exact served value *)
let journal_replay_mixed () =
  let inst = Db.Instance.of_graph (Graphs.Gen.path 6) in
  let inst0 = Db.Instance.copy inst in
  let w = Db.Weights.create ~name:"w" ~arity:2 ~zero:0 in
  Db.Weights.fill_from_relation w inst "E" (fun _ -> 1);
  let weights = Db.Weights.bundle [ w ] in
  let t = Engine.Eval.prepare nat_ops inst weights edge_weight in
  let j = Engine.Eval.enable_journal t in
  Engine.Eval.update t "w" [ 0; 1 ] 7;
  ins t 1 4;
  Engine.Eval.update t "w" [ 1; 4 ] 5;
  del t 2 3;
  Engine.Eval.update t "w" [ 4; 5 ] 3;
  ins t 0 2;
  let served = Engine.Eval.value t in
  check_int "journal holds the structural ops" 6
    (Circuits.Journal.structural_count j);
  (* fresh compile on the pre-journal instance; the weight store was
     never written through (unchecked updates), so the same bundle is the
     pre-journal one *)
  let t2 = Engine.Eval.prepare nat_ops inst0 weights edge_weight in
  Engine.Eval.replay t2 j;
  check_int "replay reconstructs the served value" served (Engine.Eval.value t2);
  let c2 = Engine.Eval.churn_stats t2 in
  check_int "replay re-ran the inserts" 4 c2.Engine.Eval.ch_inserts;
  check_int "replay re-ran the deletes" 2 c2.Engine.Eval.ch_deletes;
  (* replay must not have re-appended to a journal *)
  check_int "no double journaling" 6 (Circuits.Journal.structural_count j);
  (* and both engines keep agreeing on subsequent updates *)
  Engine.Eval.update t "w" [ 0; 2 ] 2;
  Engine.Eval.update t2 "w" [ 0; 2 ] 2;
  check_int "post-replay update agreement" (Engine.Eval.value t) (Engine.Eval.value t2)

(* a fault mid-splice rolls the whole structural wave back: instance,
   live graph, circuit and value are the pre-update ones *)
let splice_fault_rolls_back () =
  let inst = Db.Instance.of_graph (Graphs.Gen.grid 3 3) in
  let weights = Db.Weights.bundle [] in
  let t = Engine.Eval.prepare nat_ops inst weights triangle_count in
  let before = Engine.Eval.value t in
  Circuits.Dyn.set_fault_hook t.Engine.Eval.dyn
    (Some (fun _ -> failwith "injected splice fault"));
  check_bool "splice fault surfaces as Rolled_back" true
    (try
       Engine.Eval.insert_tuple t "E" [ 0; 4 ];
       false
     with Circuits.Dyn.Rolled_back _ -> true);
  Circuits.Dyn.set_fault_hook t.Engine.Eval.dyn None;
  check_bool "tuple reverted" false (Db.Instance.mem inst "E" [ 0; 4 ]);
  check_int "value unchanged" before (Engine.Eval.value t);
  check_int "no churn recorded"
    0 (Engine.Eval.churn_stats t).Engine.Eval.ch_inserts;
  (* with the hook gone the same insert commits *)
  ins t 0 4;
  agree "insert after rollback" t inst weights triangle_count

(* a fault while the runtime is rebuilt after a full recompile rolls
   back exactly like one after a localized recompile: both branches swap
   the runtime in through the same faultable splice *)
let fallback_fault_rolls_back () =
  let fresh () =
    let inst = Db.Instance.create Db.Schema.graph_schema ~n:8 in
    (inst, Engine.Eval.prepare nat_ops ~max_depth:2 inst (Db.Weights.bundle []) triangle_count)
  in
  (* the arcs of the path 0-…-7, in insertion order; a twin finds the
     first one that trips the amortization trigger *)
  let arcs = List.concat (List.init 7 (fun i -> [ [ i; i + 1 ]; [ i + 1; i ] ])) in
  let _, twin = fresh () in
  let rec first_fallback k = function
    | [] -> Alcotest.fail "growing the path never tripped the fallback"
    | arc :: rest ->
        Engine.Eval.insert_tuple twin "E" arc;
        if (Engine.Eval.churn_stats twin).Engine.Eval.ch_fallbacks > 0 then k
        else first_fallback (k + 1) rest
  in
  let k = first_fallback 0 arcs in
  let inst, t = fresh () in
  List.iteri (fun i arc -> if i < k then Engine.Eval.insert_tuple t "E" arc) arcs;
  let arc = List.nth arcs k in
  let before = Engine.Eval.value t in
  Circuits.Dyn.set_fault_hook t.Engine.Eval.dyn
    (Some (fun _ -> failwith "injected fallback fault"));
  check_bool "fallback fault surfaces as Rolled_back" true
    (try
       Engine.Eval.insert_tuple t "E" arc;
       false
     with Circuits.Dyn.Rolled_back _ -> true);
  Circuits.Dyn.set_fault_hook t.Engine.Eval.dyn None;
  check_bool "tuple reverted" false (Db.Instance.mem inst "E" arc);
  check_int "value unchanged" before (Engine.Eval.value t);
  check_int "no fallback recorded" 0 (Engine.Eval.churn_stats t).Engine.Eval.ch_fallbacks;
  (* with the hook gone the same insert commits, through the fallback *)
  Engine.Eval.insert_tuple t "E" arc;
  check_int "fallback committed" 1 (Engine.Eval.churn_stats t).Engine.Eval.ch_fallbacks;
  agree "insert after rollback" t inst (Db.Weights.bundle []) triangle_count

(* checked variants: structured errors out, state preserved, degraded
   backend observes the same tuple set *)
let checked_structural () =
  let inst = Db.Instance.of_graph (Graphs.Gen.path 6) in
  let weights = Db.Weights.bundle [] in
  let ck =
    match Engine.Eval.prepare_checked nat_ops inst weights triangle_count with
    | Ok ck -> ck
    | Error e -> Alcotest.failf "prepare_checked: %s" (Robust.to_string e)
  in
  (match Engine.Eval.insert_tuple_checked ck "E" [ 0; 2 ] with
  | Ok () -> ()
  | Error e -> Alcotest.failf "insert_checked: %s" (Robust.to_string e));
  (match Engine.Eval.insert_tuple_checked ck "E" [ 0; 2 ] with
  | Ok () -> Alcotest.fail "duplicate insert accepted"
  | Error (Robust.Bad_input _) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Robust.to_string e));
  (match Engine.Eval.delete_tuple_checked ck "E" [ 5; 0 ] with
  | Ok () -> Alcotest.fail "absent delete accepted"
  | Error (Robust.Bad_input _) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Robust.to_string e));
  (match Engine.Eval.insert_tuple_checked ck "E" [ 2; 0 ] with
  | Ok () -> ()
  | Error e -> Alcotest.failf "insert_checked: %s" (Robust.to_string e));
  match Engine.Eval.value_checked ck with
  | Ok got ->
      check_int "checked value vs reference"
        (Logic.Expr.eval (module Instances.Nat) inst weights triangle_count ())
        got
  | Error e -> Alcotest.failf "value_checked: %s" (Robust.to_string e)

(* --- the emitted raw circuit, pinned gate for gate --- *)

let int_ops = Intf.ops_of_ring (module Instances.Int_ring)
let raw t = t.Engine.Eval.plan.Engine.Compile.pl_raw

(* digest of a raw circuit's gates and output, independent of sharing *)
let digest (c : _ Circuits.Circuit.t) =
  Digest.to_hex
    (Digest.string
       (Marshal.to_string (c.Circuits.Circuit.nodes, c.Circuits.Circuit.output)
          [ Marshal.No_sharing ]))

let unary_weights name n f =
  let w = Db.Weights.create ~name ~arity:1 ~zero:0 in
  Db.Weights.fill_unary w ~n f;
  w

(* Σ w(x) over the triangles (x, y, z), over the int ring *)
let weighted_triangles inst =
  let expr =
    Logic.Expr.Sum
      ( [ "x"; "y"; "z" ],
        Logic.Expr.Mul
          [
            Logic.Expr.Guard (Logic.Formula.And [ e "x" "y"; e "y" "z"; e "z" "x" ]);
            Logic.Expr.Weight ("w", [ v "x" ]);
          ] )
  in
  let w = unary_weights "w" (Db.Instance.n inst) (fun i -> (i mod 11) - 5) in
  Engine.Eval.prepare int_ops inst (Db.Weights.bundle [ w ]) expr

(* Σ v0(x)·v1(y)·v2(z) over the 2-paths x-y-z with x ≠ z *)
let weighted_path2 inst =
  let path2 = Logic.Formula.And [ e "x" "y"; e "y" "z"; Logic.Formula.neq (v "x") (v "z") ] in
  let sym i = Printf.sprintf "v%d" i in
  let expr =
    Logic.Expr.Sum
      ( [ "x"; "y"; "z" ],
        Logic.Expr.Mul
          (Logic.Expr.Guard path2
          :: List.mapi (fun i x -> Logic.Expr.Weight (sym i, [ v x ])) [ "x"; "y"; "z" ]) )
  in
  let n = Db.Instance.n inst in
  let weights = List.init 3 (fun i -> unary_weights (sym i) n (fun j -> (j + i) mod 4)) in
  Engine.Eval.prepare nat_ops inst (Db.Weights.bundle weights) expr

(* the 7x7 grid plus the diagonal of every cell with r+c even *)
let grid_with_diagonals () =
  let side = 7 in
  let inst = Db.Instance.of_graph (Graphs.Gen.grid side side) in
  for r = 0 to side - 2 do
    for c = 0 to side - 2 do
      if (r + c) land 1 = 0 then
        Db.Instance.add inst "E" [ (r * side) + c; ((r + 1) * side) + c + 1 ]
    done
  done;
  inst

(* The raw and optimized circuits of four prepared queries match
   digests recorded from an earlier build of the compiler and the
   optimizer, so a change to what either emits, or in which order, shows
   here. Re-record them only for an intended change to the emitted
   circuit. Normalization names bound variables from a process-wide
   counter and shapes are ordered by variable name, so each query is
   prepared from the counter's initial state. *)
let raw_digests_pinned () =
  let pinned prepare inst =
    Logic.Normal.fresh_counter := 0;
    prepare inst
  in
  let wdeg inst =
    let expr =
      Logic.Expr.Sum
        ( [ "y" ],
          Logic.Expr.Mul [ Logic.Expr.Guard (e "x" "y"); Logic.Expr.Weight ("w", [ v "y" ]) ] )
    in
    let w = unary_weights "w" 1024 (fun i -> i mod 7) in
    Engine.Eval.prepare nat_ops inst (Db.Weights.bundle [ w ]) expr
  in
  List.iter
    (fun (what, t, want_raw, want_opt) ->
      Alcotest.(check string) (what ^ ": raw") want_raw (digest (raw t));
      Alcotest.(check string) (what ^ ": optimized") want_opt (digest (Engine.Eval.circuit t)))
    [
      ( "weighted triangles, 7x7 grid + diagonals",
        pinned weighted_triangles (grid_with_diagonals ()),
        "15a68a5b3429b2c1196bfcf91f4c5180",
        "67e0423348e6914162181fe06fea0cb0" );
      ( "weighted triangles, triangulated 8x8 grid",
        pinned weighted_triangles (Db.Instance.of_graph (Graphs.Gen.triangulated_grid 8 8)),
        "676fd97766d403fade081c2915f72f0b",
        "6fcd8f05c405e24e55ce5ec5998f7355" );
      ( "weighted 2-paths, 8x8 grid",
        pinned weighted_path2 (Db.Instance.of_graph (Graphs.Gen.grid 8 8)),
        "9d749e4fde4a135bc2e1d2162cd1ca8d",
        "604e50660c2a3fc7f555a81c26a65503" );
      ( "weighted degree, deg3 n=1024",
        pinned wdeg
          (Db.Instance.of_graph (Graphs.Gen.random_bounded_degree ~seed:1 ~n:1024 ~max_deg:3)),
        "d0d5101dc0887f96d4cdfd9f3968d0c7",
        "b4e55318a55273f459edbd5dbf03d460" );
    ]

(* inserting an absent arc and deleting it again, both localized,
   restores the raw circuit gate for gate *)
let toggle_back_restores_raw () =
  let toggle what t arc =
    let before = raw t in
    Engine.Eval.insert_tuple t "E" arc;
    Engine.Eval.delete_tuple t "E" arc;
    let after = raw t in
    check_int (what ^ ": both ops localized") 2
      (Engine.Eval.churn_stats t).Engine.Eval.ch_localized;
    check_bool (what ^ ": raw circuit restored") true
      (before.Circuits.Circuit.nodes = after.Circuits.Circuit.nodes
      && before.Circuits.Circuit.output = after.Circuits.Circuit.output)
  in
  toggle "weighted triangles, 7x7 grid + diagonals"
    (weighted_triangles (grid_with_diagonals ()))
    [ 1; 9 ];
  toggle "weighted triangles, triangulated 8x8 grid"
    (weighted_triangles (Db.Instance.of_graph (Graphs.Gen.triangulated_grid 8 8)))
    [ 0; 18 ];
  toggle "weighted 2-paths, 8x8 grid"
    (weighted_path2 (Db.Instance.of_graph (Graphs.Gen.grid 8 8)))
    [ 0; 9 ]

(* the compile budget also bounds a structural op's rebuild: an insert
   whose new raw circuit outgrows it is refused, and the instance, live
   graph and value stay the pre-insert ones *)
let structural_budget_exceeded () =
  let prepare budget =
    let inst = Db.Instance.of_graph (Graphs.Gen.grid 3 3) in
    (inst, Engine.Eval.prepare nat_ops ?budget inst (Db.Weights.bundle []) triangle_count)
  in
  let size = Array.length (raw (snd (prepare None))).Circuits.Circuit.nodes in
  let inst, t = prepare (Some (Robust.budget ~max_gates:(size + 1) ())) in
  let before = Engine.Eval.value t in
  check_bool "insert over budget refused" true
    (try
       Engine.Eval.insert_tuple t "E" [ 0; 4 ];
       false
     with Robust.Error (Robust.Budget_exceeded _) -> true);
  check_bool "tuple reverted" false (Db.Instance.mem inst "E" [ 0; 4 ]);
  check_bool "live edge reverted" false
    (Graphs.Live.has_edge t.Engine.Eval.plan.Engine.Compile.pl_live 0 4);
  check_int "value unchanged" before (Engine.Eval.value t);
  check_int "no churn recorded" 0 (Engine.Eval.churn_stats t).Engine.Eval.ch_inserts

let suite =
  [
    Alcotest.test_case "counting churn (localized)" `Quick counting_churn;
    Alcotest.test_case "weighted churn" `Quick weighted_churn;
    Alcotest.test_case "served circuit follows the splices" `Quick
      served_circuit_follows_splices;
    Alcotest.test_case "writes to unread weights" `Quick unread_weight_writes;
    Alcotest.test_case "bad deltas rejected" `Quick bad_deltas_rejected;
    Alcotest.test_case "fallback on depth growth" `Quick fallback_on_depth_growth;
    Alcotest.test_case "shapes cached per (summand, depth) across churn" `Quick
      shape_cache_across_churn;
    Alcotest.test_case "journal replay (mixed batches)" `Quick journal_replay_mixed;
    Alcotest.test_case "splice fault rolls back" `Quick splice_fault_rolls_back;
    Alcotest.test_case "fault mid-fallback rolls back" `Quick fallback_fault_rolls_back;
    Alcotest.test_case "checked structural ops" `Quick checked_structural;
    Alcotest.test_case "raw circuits match recorded digests" `Quick raw_digests_pinned;
    Alcotest.test_case "toggle-back restores the raw circuit" `Quick toggle_back_restores_raw;
    Alcotest.test_case "budget bounds a structural op" `Quick structural_budget_exceeded;
  ]
