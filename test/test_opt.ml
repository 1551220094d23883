(* Optimizer tests (the "optimize once, consume everywhere" layer):

   1. unit tests for the optimizer's contracts: constants kept (no 0/1
      rule), hash-consing of structurally equal gates, dead-gate
      elimination (a dead twin of a live gate included), fan-in capping;
   2. the compact builder's guard against a dropped (negative) child;
   3. qcheck equivalence: optimized and unoptimized circuits agree — on
      random hand-built circuits with 0/1 constants in all four semirings
      (nat / int-ring / bool / zmod6), and end-to-end through
      [Engine.Eval.evaluate] on random sparse databases — and the default
      optimizer's gate shrink on weighted triangles and 2-path enumeration;
   4. batched-update equivalence: [Dyn.set_inputs] waves on the optimized
      circuit track a from-scratch re-evaluation of the *unoptimized*
      circuit, in every update mode;
   5. what the compiler hands the optimizer: no statically zero gate, and
      a raw circuit within 3x of the optimized one, also after structural
      updates. *)

open Semiring
module Circuit = Circuits.Circuit

let nat_ops = Intf.ops_of_module (module Instances.Nat)
let int_ops = Intf.ops_of_ring (module Instances.Int_ring)
let bool_ops = Intf.ops_of_finite (module Instances.Bool)
let z6_ops = Intf.ops_of_finite (module Zmod.Z6)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let t p = QCheck_alcotest.to_alcotest p

(* ---------------------------------------------- 1. optimizer contracts --- *)

(* (w0 + 0) * 1 and w0 * 0 over a semiring's [zero] and [one], with
   their gate counts *)
let identity_circuits (type a) ~(zero : a) ~(one : a) =
  let build mk =
    let b = Circuit.builder () in
    Circuit.finish b ~output:(mk b (Circuit.input b ("w", [ 0 ])))
  in
  [
    ( "(w0 + 0) * 1",
      5,
      build (fun b w0 ->
          let a = Circuit.add b [ w0; Circuit.const b zero ] in
          Circuit.mul b [ a; Circuit.const b one ]) );
    ("w0 * 0", 3, build (fun b w0 -> Circuit.mul b [ w0; Circuit.const b zero ]));
  ]

let constants_kept () =
  (* the optimizer uses no 0/1 axiom: both circuits keep every gate and
     evaluate as the raw circuit does *)
  let check (type a) sname (ops : a Intf.ops) (xs : a list) =
    List.iter
      (fun (what, gates, c) ->
        let what = Printf.sprintf "%s, %s" what sname in
        let o = Opt.run ~zero:ops.Intf.zero ~one:ops.Intf.one ~equal:ops.Intf.equal c in
        check_int (what ^ ": gates kept") gates (Array.length o.Opt.circuit.Circuit.nodes);
        List.iter
          (fun x ->
            check_bool (what ^ ": value preserved") true
              (ops.Intf.equal
                 (Circuit.eval ops c (fun _ -> x))
                 (Circuit.eval ops o.Opt.circuit (fun _ -> x))))
          xs)
      (identity_circuits ~zero:ops.Intf.zero ~one:ops.Intf.one)
  in
  check "nat" nat_ops [ 0; 1; 5 ];
  check "bool" bool_ops [ false; true ]

let cse_merges_commutative () =
  let b = Circuit.builder () in
  let w0 = Circuit.input b ("w", [ 0 ]) in
  let w1 = Circuit.input b ("w", [ 1 ]) in
  (* same multiset of children in different order: one gate after cse *)
  let a1 = Circuit.push b (Circuit.Add [| w0; w1 |]) in
  let a2 = Circuit.push b (Circuit.Add [| w1; w0 |]) in
  let out = Circuit.mul b [ a1; a2 ] in
  let c = Circuit.finish b ~output:out in
  check_int "before cse" 5 (Circuit.stats c).Circuit.gates;
  let o = Opt.run ~zero:0 ~one:1 c in
  check_int "after cse" 4 (Circuit.stats o.Opt.circuit).Circuit.gates;
  (* the merged gate feeds the product twice: (w0+w1)^2, not dropped *)
  let v = function "w", [ 0 ] -> 2 | _ -> 3 in
  check_int "value kept" 25 (Circuit.eval nat_ops o.Opt.circuit v)

let cse_never_dedups_children () =
  (* a + a must stay a two-child sum: 2a != a outside idempotent semirings *)
  let b = Circuit.builder () in
  let w0 = Circuit.input b ("w", [ 0 ]) in
  let out = Circuit.add b [ w0; w0 ] in
  let c = Circuit.finish b ~output:out in
  let o = Opt.run ~zero:0 ~one:1 c in
  check_int "a + a = 2a survives the full pipeline" 14
    (Circuit.eval nat_ops o.Opt.circuit (fun _ -> 7))

let dead_twin_not_emitted () =
  (* a dead Add [|a; b|] before a live Add [|b; a|]: only the live gate
     is emitted, with its own child order *)
  let b = Circuit.builder () in
  let wa = Circuit.input b ("w", [ 0 ]) in
  let wb = Circuit.input b ("w", [ 1 ]) in
  let _dead = Circuit.push b (Circuit.Add [| wa; wb |]) in
  let live = Circuit.push b (Circuit.Add [| wb; wa |]) in
  let c = Circuit.finish b ~output:(Circuit.mul b [ live; wa ]) in
  let o = Opt.run ~zero:0 ~one:1 c in
  let adds =
    List.filter_map
      (function Circuit.Add gs -> Some gs | _ -> None)
      (Array.to_list o.Opt.circuit.Circuit.nodes)
  in
  check_int "one Add" 1 (List.length adds);
  check_bool "the live gate's child order" true
    (List.map (Array.map (fun g -> o.Opt.circuit.Circuit.nodes.(g))) adds
    = [ [| Circuit.Input ("w", [ 1 ]); Circuit.Input ("w", [ 0 ]) |] ]);
  check_int "no dead gates" 0 (Circuit.stats o.Opt.circuit).Circuit.dead_gates;
  let v = function "w", [ i ] -> i + 2 | _ -> 0 in
  check_int "value kept" (Circuit.eval nat_ops c v) (Circuit.eval nat_ops o.Opt.circuit v)

let dce_drops_dead_cone () =
  let b = Circuit.builder () in
  let w0 = Circuit.input b ("w", [ 0 ]) in
  let w9 = Circuit.input b ("w", [ 9 ]) in
  let _dead = Circuit.mul b [ w9; w9 ] in
  let out = Circuit.add b [ w0; w0 ] in
  let c = Circuit.finish b ~output:out in
  check_int "dead gates visible in stats" 2 (Circuit.stats c).Circuit.dead_gates;
  let o = Opt.run ~zero:0 ~one:1 c in
  let s = Circuit.stats o.Opt.circuit in
  check_int "live gates only" 2 s.Circuit.gates;
  check_int "no dead gates left" 0 s.Circuit.dead_gates;
  check_bool "dead input gate dropped" false
    (Array.exists
       (function Circuit.Input k -> k = ("w", [ 9 ]) | _ -> false)
       o.Opt.circuit.Circuit.nodes)

let balance_caps_fan_in () =
  let b = Circuit.builder () in
  let ws = List.init 30 (fun i -> Circuit.input b ("w", [ i ])) in
  let out = Circuit.add b ws in
  let c = Circuit.finish b ~output:out in
  let o = Opt.run ~zero:0 ~one:1 c in
  let s = Circuit.stats o.Opt.circuit in
  check_bool "fan-in capped" true (s.Circuit.max_fan_in <= Opt.balance_cap);
  check_int "value preserved" (30 * 31 / 2)
    (Circuit.eval nat_ops o.Opt.circuit (function "w", [ i ] -> i + 1 | _ -> 0));
  (* The General-mode update bound (Corollary 13) rests on this cap alone:
     weighted degree over nat, summed over x so that every update travels
     to the output, prepared end to end, must run only Add/Mul gates of
     fan-in <= balance_cap, and the mean gates recomputed per single
     update must grow like log n — by a small constant per 4x in n — so
     an update reads O(balance_cap * log n) gate values. *)
  let v x = Logic.Term.Var x in
  let wdeg =
    Logic.Expr.Sum
      ( [ "x"; "y" ],
        Logic.Expr.Mul
          [
            Logic.Expr.Guard (Logic.Formula.Rel ("E", [ v "x"; v "y" ]));
            Logic.Expr.Weight ("w", [ v "y" ]);
          ] )
  in
  let mean_touched n =
    let inst =
      Db.Instance.of_graph (Graphs.Gen.random_bounded_degree ~seed:n ~n ~max_deg:3)
    in
    let w = Db.Weights.create ~name:"w" ~arity:1 ~zero:0 in
    Db.Weights.fill_unary w ~n (fun i -> i mod 7);
    let ev =
      Engine.Eval.prepare nat_ops ~tfa_rounds:1 inst (Db.Weights.bundle [ w ]) wdeg
    in
    let d = ev.Engine.Eval.dyn in
    check_bool "General mode" true (d.Circuits.Dyn.mode = Circuits.Dyn.General);
    let cc = d.Circuits.Dyn.cc in
    for id = 0 to cc.Circuits.Compact.n - 1 do
      let op = cc.Circuits.Compact.opcode.(id) in
      let fan_in =
        cc.Circuits.Compact.child_off.(id + 1) - cc.Circuits.Compact.child_off.(id)
      in
      if (op = Circuits.Compact.op_add || op = Circuits.Compact.op_mul)
         && fan_in > Opt.balance_cap
      then Alcotest.failf "n=%d: gate %d has fan-in %d > %d" n id fan_in Opt.balance_cap
    done;
    let rng = Random.State.make [| n |] in
    let updates = 400 in
    let total = ref 0 in
    for k = 1 to updates do
      let (), c =
        Engine.Eval.with_cost ev (fun () ->
            (* 7 + k never repeats a stored value, so every update waves *)
            Engine.Eval.update ev "w" [ Random.State.int rng n ] (7 + k))
      in
      total := !total + c.Engine.Eval.Cost.gates_visited
    done;
    float_of_int !total /. float_of_int updates
  in
  let m8 = mean_touched (1 lsl 8) and m10 = mean_touched (1 lsl 10)
  and m12 = mean_touched (1 lsl 12) in
  let step a b =
    check_bool
      (Printf.sprintf "touched/update %.2f -> %.2f grows by <= 4 per 4x n" a b)
      true
      (b -. a <= 4.)
  in
  step m8 m10;
  step m10 m12

(* ------------------------------------------------------ 2. compact guard --- *)

let compact_rejects_dropped_perm_child () =
  (* a Perm matrix rewritten after [finish] can plant a dropped gate
     (id -1) in a row; the compact builder must refuse it with a
     structured error, not an array-bounds [Invalid_argument] from deep
     inside the CSR packing *)
  let b = Circuit.builder () in
  let w0 = Circuit.input b ("w", [ 0 ]) in
  let w1 = Circuit.input b ("w", [ 1 ]) in
  let p = Circuit.perm b [| [| w0; w1 |]; [| w1; w0 |] |] in
  let c = Circuit.finish b ~output:p in
  c.Circuit.nodes.(p) <- Circuit.Perm [| [| w0; -1 |]; [| w1; w0 |] |];
  match Circuits.Compact.of_circuit c with
  | _ -> Alcotest.fail "of_circuit accepted a -1 perm child"
  | exception Robust.Error (Robust.Bad_input msg) ->
      check_bool "error names the dropped child" true
        (let sub = "dropped" in
         let n = String.length msg and m = String.length sub in
         let rec at i = i + m <= n && (String.sub msg i m = sub || at (i + 1)) in
         at 0)
  | exception Invalid_argument _ ->
      Alcotest.fail "of_circuit leaked Invalid_argument for a -1 perm child"

(* ------------------------------------- 3. optimized = unoptimized ------ *)

let opt_preserves_value (type a) name (ops : a Intf.ops) ~(zero : a) ~(one : a)
    ~(mk : int -> a) =
  t
    (QCheck.Test.make ~count:60
       ~name:(Printf.sprintf "opt preserves value: %s" name)
       QCheck.(int_range 0 100000)
       (fun seed ->
         let c = Circuit_gen.random_circuit ~zero ~one ~mk seed 6 in
         let o = Opt.run ~zero ~one ~equal:ops.Intf.equal c in
         let v = function "w", [ i ] -> mk ((i * 31) + seed) | _ -> zero in
         (* every input key of the optimized circuit names one input gate *)
         let addressable =
           let keys =
             Array.fold_left
               (fun acc -> function Circuit.Input k -> k :: acc | _ -> acc)
               [] o.Opt.circuit.Circuit.nodes
           in
           List.length (List.sort_uniq compare keys) = List.length keys
         in
         (* the gates merging orphaned are dropped and every Add/Mul is capped *)
         let capped =
           Array.for_all
             (function
               | Circuit.Add gs | Circuit.Mul gs -> Array.length gs <= Opt.balance_cap
               | _ -> true)
             o.Opt.circuit.Circuit.nodes
         in
         addressable && capped
         && (Circuit.stats o.Opt.circuit).Circuit.dead_gates = 0
         && ops.Intf.equal (Circuit.eval ops c v) (Circuit.eval ops o.Opt.circuit v)))

(* end-to-end through the engine on random sparse databases: the default
   pipeline, the disabled pipeline, and the brute-force reference must
   agree *)
let vx x = Logic.Term.Var x
let e x y = Logic.Formula.Rel ("E", [ vx x; vx y ])

let expr_wedge =
  Logic.Expr.Sum
    ( [ "x"; "y" ],
      Logic.Expr.Mul
        [
          Logic.Expr.Guard (e "x" "y");
          Logic.Expr.Weight ("w", [ vx "x" ]);
          Logic.Expr.Weight ("w", [ vx "y" ]);
        ] )

let gen_db = QCheck.(pair (int_range 4 30) (int_range 0 10000))

let engine_opt_eq_unopt (type a) name (ops : a Intf.ops) (mk : int -> a) ~count =
  t
    (QCheck.Test.make ~count
       ~name:(Printf.sprintf "engine opt = none = reference: %s" name)
       gen_db
       (fun (n, seed) ->
         let g = Graphs.Gen.random_bounded_degree ~seed ~n ~max_deg:3 in
         let inst = Db.Instance.of_graph g in
         let w = Db.Weights.create ~name:"w" ~arity:1 ~zero:ops.Intf.zero in
         Db.Weights.fill_unary w ~n (fun i -> mk ((i * 7) + seed));
         let weights = Db.Weights.bundle [ w ] in
         let opt = Engine.Eval.evaluate ops ~tfa_rounds:1 inst weights expr_wedge in
         let raw =
           Engine.Eval.evaluate ops ~opt:Opt.none ~tfa_rounds:1 inst weights expr_wedge
         in
         let want = Engine.Reference.eval ops inst weights expr_wedge in
         ops.Intf.equal opt raw && ops.Intf.equal opt want))

(* The default pipeline must earn its keep on the two query shapes with
   the most redundant raw circuits: weighted triangles over a
   triangulated grid (closed Theorem 8 query) and the Fo_enum 2-path
   query over a grid (Theorem 24 enumeration). Each optimized circuit
   keeps at most 80% of its [Opt.none] gate count. *)
let default_pipeline_shrinks () =
  let kept what ~opt ~raw =
    let pct = 100. *. float_of_int opt /. float_of_int raw in
    check_bool (Printf.sprintf "%s: %d -> %d gates (%.1f%% kept) <= 80%%" what raw opt pct)
      true (pct <= 80.)
  in
  let wtri =
    Logic.Expr.Sum
      ( [ "x"; "y"; "z" ],
        Logic.Expr.Mul
          [
            Logic.Expr.Guard (Logic.Formula.And [ e "x" "y"; e "y" "z"; e "z" "x" ]);
            Logic.Expr.Weight ("w", [ vx "x" ]);
          ] )
  in
  let inst = Db.Instance.of_graph (Graphs.Gen.triangulated_grid 6 6) in
  let w = Db.Weights.create ~name:"w" ~arity:1 ~zero:0 in
  Db.Weights.fill_unary w ~n:(Db.Instance.n inst) (fun i -> (i mod 5) + 1);
  let weights = Db.Weights.bundle [ w ] in
  let gates ?opt () =
    (Engine.Eval.stats (Engine.Eval.prepare nat_ops ?opt ~tfa_rounds:1 inst weights wtri))
      .Circuit.gates
  in
  kept "weighted triangles, tri-grid 6x6" ~opt:(gates ()) ~raw:(gates ~opt:Opt.none ());
  let path2 = Logic.Formula.And [ e "x" "y"; e "y" "z"; Logic.Formula.neq (vx "x") (vx "z") ] in
  let inst = Db.Instance.of_graph (Graphs.Gen.grid 6 6) in
  let gates ?opt () =
    (Fo_enum.stats (Fo_enum.prepare ~dynamic:true ?opt inst path2)).Circuit.gates
  in
  kept "2-path enumeration, grid 6x6" ~opt:(gates ()) ~raw:(gates ~opt:Opt.none ())

(* ------------------------------- 4. batched updates on the optimized --- *)

let batch_on_optimized (type a) mode name (ops : a Intf.ops) ~(zero : a) ~(one : a)
    ~(mk : int -> a) =
  t
    (QCheck.Test.make ~count:30
       ~name:(Printf.sprintf "set_inputs on optimized circuit: %s" name)
       QCheck.(
         pair (int_range 0 1000)
           (small_list (small_list (pair (int_range 0 5) (int_range 0 50)))))
       (fun (seed, batches) ->
         let c = Circuit_gen.random_circuit ~zero ~one ~mk seed 6 in
         let o = Opt.run ~zero ~one ~equal:ops.Intf.equal c in
         let vals = Array.init 6 (fun i -> mk i) in
         let valuation = function "w", [ i ] -> vals.(i) | _ -> zero in
         let d = Circuits.Dyn.create ~mode ops o.Opt.circuit valuation in
         List.for_all
           (fun batch ->
             List.iter (fun (i, x) -> vals.(i) <- mk x) batch;
             (* only the keys the optimized circuit still reads can be set *)
             Circuits.Dyn.set_inputs d
               (List.filter_map
                  (fun (i, x) ->
                    let key = ("w", [ i ]) in
                    if Circuits.Dyn.has_input d key then Some (key, mk x) else None)
                  batch);
             (* ...and the result must still match a from-scratch eval of
                the *unoptimized* circuit: dropped inputs were provably
                irrelevant *)
             ops.Intf.equal (Circuits.Dyn.value d) (Circuit.eval ops c valuation))
           batches))

(* ------------------------ 5. the compiler emits only non-zero gates --- *)

(* Which gates are statically zero, bottom-up: a zero constant, an Add
   whose children are all zero, a Mul with a zero factor, a Perm with an
   all-zero row or with fewer columns holding a non-zero entry than
   rows. *)
let static_zero (type a) ~(zero : a) ~(equal : a -> a -> bool) (c : a Circuit.t) =
  let z = Array.make (Array.length c.Circuit.nodes) false in
  Array.iteri
    (fun id node ->
      z.(id) <-
        (match node with
        | Circuit.Input _ -> false
        | Circuit.Const s -> equal s zero
        | Circuit.Add gs -> Array.for_all (fun g -> z.(g)) gs
        | Circuit.Mul gs -> Array.exists (fun g -> z.(g)) gs
        | Circuit.Perm rows ->
            let ncols = if rows = [||] then 0 else Array.length rows.(0) in
            let live_cols =
              List.filter
                (fun j -> Array.exists (fun row -> not z.(row.(j))) rows)
                (List.init ncols Fun.id)
            in
            Array.exists (Array.for_all (fun g -> z.(g))) rows
            || List.length live_cols < Array.length rows))
    c.Circuit.nodes;
  z

let check_no_zero_gates what ~zero ~equal (c : _ Circuit.t) =
  let z = static_zero ~zero ~equal c in
  let bad = ref 0 in
  Array.iteri
    (fun id node ->
      match node with
      | (Circuit.Add _ | Circuit.Mul _ | Circuit.Perm _) when z.(id) -> incr bad
      | _ -> ())
    c.Circuit.nodes;
  check_int (what ^ ": statically zero Add/Mul/Perm gates") 0 !bad

(* every Input gate lies in the output cone: the compiler, and a
   structural op's rebuild, leave no input behind that nothing reads *)
let check_no_unread_inputs what (c : _ Circuit.t) =
  let live = Circuit.live c in
  let unread = ref 0 in
  Array.iteri
    (fun id node ->
      match node with Circuit.Input _ when not live.(id) -> incr unread | _ -> ())
    c.Circuit.nodes;
  check_int (what ^ ": Input gates nothing reads") 0 !unread

let check_raw_within_3x what ~raw ~opt =
  check_bool (Printf.sprintf "%s: raw %d <= 3 x optimized %d" what raw opt) true (raw <= 3 * opt)

(* Check a prepared query in both pipelines, then again after 20
   structural ops: neither circuit holds a statically zero Add, Mul or
   Perm, the --opt=none circuit has no input nothing reads, and the raw
   circuit is within 3x of the optimized one. *)
let prepared_non_zero (type a) what (ops : a Intf.ops) inst weights expr
    ~(toggle : int -> a Engine.Eval.t -> unit) =
  let zero = ops.Intf.zero and equal = ops.Intf.equal in
  let none = Engine.Eval.prepare ops ~opt:Opt.none inst weights expr in
  let dflt = Engine.Eval.prepare ops (Db.Instance.copy inst) weights expr in
  let check when_ =
    let what = Printf.sprintf "%s, %s" what when_ in
    check_no_zero_gates (what ^ ", --opt=none") ~zero ~equal (Engine.Eval.circuit none);
    check_no_zero_gates (what ^ ", default") ~zero ~equal (Engine.Eval.circuit dflt);
    check_no_unread_inputs (what ^ ", --opt=none") (Engine.Eval.circuit none);
    check_raw_within_3x what
      ~raw:(Array.length dflt.Engine.Eval.plan.Engine.Compile.pl_raw.Circuit.nodes)
      ~opt:(Array.length (Engine.Eval.circuit dflt).Circuit.nodes);
    check_bool (what ^ ": both pipelines agree") true
      (equal (Engine.Eval.value none) (Engine.Eval.value dflt))
  in
  check "as prepared";
  for i = 0 to 19 do
    toggle i none;
    toggle i dflt
  done;
  check "after 20 structural ops"

(* the arc [a] is inserted if the query's instance lacks it, else deleted *)
let toggle_arc a (t : _ Engine.Eval.t) =
  if Db.Instance.mem t.Engine.Eval.inst "E" a then Engine.Eval.delete_tuple t "E" a
  else Engine.Eval.insert_tuple t "E" a

let compiler_emits_non_zero () =
  (* churn_ring's instance: weighted triangles over the int ring on a 7x7
     grid with the diagonals of the cells with r+c even; the ops toggle
     cell diagonals *)
  let side = 7 in
  let diagonal cell =
    let u = (cell / (side - 1) * side) + (cell mod (side - 1)) in
    [ u; u + side + 1 ]
  in
  let inst = Db.Instance.of_graph (Graphs.Gen.grid side side) in
  for cell = 0 to ((side - 1) * (side - 1)) - 1 do
    if ((cell / (side - 1)) + (cell mod (side - 1))) land 1 = 0 then
      Db.Instance.add inst "E" (diagonal cell)
  done;
  let w = Db.Weights.create ~name:"w" ~arity:1 ~zero:0 in
  Db.Weights.fill_unary w ~n:(Db.Instance.n inst) (fun i -> (i mod 11) - 5);
  let wtri =
    Logic.Expr.Sum
      ( [ "x"; "y"; "z" ],
        Logic.Expr.Mul
          [
            Logic.Expr.Guard (Logic.Formula.And [ e "x" "y"; e "y" "z"; e "z" "x" ]);
            Logic.Expr.Weight ("w", [ vx "x" ]);
          ] )
  in
  prepared_non_zero "weighted triangles, 7x7 grid + diagonals" int_ops inst
    (Db.Weights.bundle [ w ]) wtri
    ~toggle:(fun i -> toggle_arc (diagonal (i * 7 mod 36)));
  (* enum_paths' closed expression on a 10x10 grid: E dynamic as Fo_enum
     compiles it, then E static through Eval, toggling grid arcs *)
  let path2 = Logic.Formula.And [ e "x" "y"; e "y" "z"; Logic.Formula.neq (vx "x") (vx "z") ] in
  let closed sym =
    Logic.Expr.Sum
      ( [ "x"; "y"; "z" ],
        Logic.Expr.Mul
          (Logic.Expr.Guard path2
          :: List.mapi (fun i x -> Logic.Expr.Weight (sym i, [ vx x ])) [ "x"; "y"; "z" ]) )
  in
  let inst = Db.Instance.of_graph (Graphs.Gen.grid 10 10) in
  let compile opt =
    fst
      (Engine.Compile.compile ~zero:false ~one:true ~opt ~dynamic_rels:[ "E" ] inst
         (closed Fo_enum.weight_sym))
  in
  let raw = compile Opt.none and opt = compile Opt.default in
  check_no_zero_gates "2-paths, E dynamic, --opt=none" ~zero:false ~equal:Bool.equal raw;
  check_no_zero_gates "2-paths, E dynamic, default" ~zero:false ~equal:Bool.equal opt;
  check_no_unread_inputs "2-paths, E dynamic, --opt=none" raw;
  check_raw_within_3x "2-paths, E dynamic" ~raw:(Array.length raw.Circuit.nodes)
    ~opt:(Array.length opt.Circuit.nodes);
  let weights =
    Db.Weights.bundle
      (List.init 3 (fun i ->
           let w = Db.Weights.create ~name:(Printf.sprintf "v%d" i) ~arity:1 ~zero:0 in
           Db.Weights.fill_unary w ~n:100 (fun j -> (j + i) mod 4);
           w))
  in
  prepared_non_zero "2-paths, 10x10 grid" nat_ops inst weights
    (closed (Printf.sprintf "v%d"))
    ~toggle:(fun i -> toggle_arc [ i; i + 10 ]);
  (* serve_weights' query: weighted degree on a degree-3 graph, n = 1024 *)
  let inst =
    Db.Instance.of_graph (Graphs.Gen.random_bounded_degree ~seed:1 ~n:1024 ~max_deg:3)
  in
  let arcs = Array.of_list (Db.Instance.tuples inst "E") in
  let w = Db.Weights.create ~name:"w" ~arity:1 ~zero:0 in
  Db.Weights.fill_unary w ~n:1024 (fun i -> i mod 7);
  let wdeg =
    Logic.Expr.Sum
      ( [ "y" ],
        Logic.Expr.Mul [ Logic.Expr.Guard (e "x" "y"); Logic.Expr.Weight ("w", [ vx "y" ]) ] )
  in
  prepared_non_zero "weighted degree, deg3 n=1024" nat_ops inst (Db.Weights.bundle [ w ]) wdeg
    ~toggle:(fun i -> toggle_arc arcs.(i mod 10))

let suite =
  [
    Alcotest.test_case "constants are kept, value preserved" `Quick constants_kept;
    Alcotest.test_case "cse: commutative merge" `Quick cse_merges_commutative;
    Alcotest.test_case "cse: children never deduplicated" `Quick cse_never_dedups_children;
    Alcotest.test_case "dce: dead cone dropped" `Quick dce_drops_dead_cone;
    Alcotest.test_case "dead twin of a live gate is not emitted" `Quick
      dead_twin_not_emitted;
    Alcotest.test_case "balance: fan-in capped" `Quick balance_caps_fan_in;
    Alcotest.test_case "default pipeline shrinks triangles and 2-paths" `Quick
      default_pipeline_shrinks;
    Alcotest.test_case "compiler emits no statically zero gate" `Quick
      compiler_emits_non_zero;
    Alcotest.test_case "compact rejects dropped perm child" `Quick
      compact_rejects_dropped_perm_child;
    opt_preserves_value "nat" nat_ops ~zero:0 ~one:1 ~mk:(fun i -> i mod 7);
    opt_preserves_value "int-ring" int_ops ~zero:0 ~one:1 ~mk:(fun i -> (i mod 9) - 4);
    opt_preserves_value "bool" bool_ops ~zero:false ~one:true ~mk:(fun i -> i mod 3 = 0);
    opt_preserves_value "zmod6" z6_ops ~zero:Zmod.Z6.zero ~one:Zmod.Z6.one
      ~mk:Zmod.Z6.of_int;
    engine_opt_eq_unopt "wedge/nat" nat_ops (fun i -> i mod 5) ~count:20;
    engine_opt_eq_unopt "wedge/int-ring" int_ops (fun i -> (i mod 9) - 4) ~count:20;
    engine_opt_eq_unopt "wedge/bool" bool_ops (fun i -> i mod 3 <> 0) ~count:20;
    engine_opt_eq_unopt "wedge/zmod6" z6_ops Zmod.Z6.of_int ~count:20;
    batch_on_optimized Circuits.Dyn.General "general/nat" nat_ops ~zero:0 ~one:1
      ~mk:(fun i -> i mod 7);
    batch_on_optimized Circuits.Dyn.Ring "ring/int" int_ops ~zero:0 ~one:1
      ~mk:(fun i -> (i mod 9) - 4);
    batch_on_optimized Circuits.Dyn.Finite "finite/zmod6" z6_ops ~zero:Zmod.Z6.zero
      ~one:Zmod.Z6.one ~mk:Zmod.Z6.of_int;
  ]
