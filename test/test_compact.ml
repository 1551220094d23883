(* Tests for the compact CSR circuit runtime and its persisted form:

   1. qcheck differential eval: [Compact.eval] over the flat arrays agrees
      with the boxed [Circuit.eval] on random *optimized* circuits in all
      four semirings (nat / int-ring / bool / zmod6), and [eval_into]
      rejects a value array shorter than the circuit;
   2. qcheck dynamic differential: a [Dyn] over an optimized circuit, fed
      random [set_inputs] batches, agrees on every gate value with a
      from-scratch [Compact.eval_into] and on its output with
      [Circuit.eval], in all three permanent strategies (General/Segtree,
      Ring, Finite), and a whole-valuation batch lands where a fresh
      create does; end to end, [Eval.prepare]/
      [update_many] agrees with [Circuit.eval] of its circuit and with
      [Engine.Reference] on random sparse databases, and so does the
      one-shot [Eval.evaluate];
   2b. the CSR layout is topological, passes [validate], and
      [to_circuit] inverts [of_circuit];
   3. qcheck rollback: a fault injected at a random position of an update
      wave on the *compact* runtime rolls back to the exact pre-wave state
      (rollback ∘ partial-wave = identity), and the structure stays usable;
   3b. qcheck what-if: a point query's read-only what-if wave equals the
      two-wave oracle (set the temporary inputs, read, set them back) in
      all three strategies and writes no committed state, and [Eval.query]
      agrees with [Engine.Reference] at every point;
   4. loader fuzz, mirroring the PR 6 journal corruption tests: random bit
      flips, truncations, and version-byte mutations of a serialized
      circuit are rejected as [Robust.Bad_input] — never a crash, hang, or
      blind allocation — save → load → save is byte-identical, and a save
      that fails part-way leaves the previous file intact;
   4b. 1-gate circuits run through every layer, and [validate] rejects
      each kind of malformed layout as [Robust.Bad_input];
   4c. the key index: every input key resolves to its gate whether it
      packs or spills, a Dyn over spilled keys answers like
      [Compact.eval], [load] rebuilds the index to the same gates, and
      [of_circuit] and [load] reject a duplicate key;
   5. format stability: the two golden .spqc files committed under
      test/golden/ (written by test/gen_golden.ml) load under the current
      reader and evaluate to their recorded values. *)

open Semiring
module Circuit = Circuits.Circuit
module Compact = Circuits.Compact
module Dyn = Circuits.Dyn
module Journal = Circuits.Journal

let nat_ops = Intf.ops_of_module (module Instances.Nat)
let int_ops = Intf.ops_of_ring (module Instances.Int_ring)
let bool_ops = Intf.ops_of_finite (module Instances.Bool)
let z6_ops = Intf.ops_of_finite (module Zmod.Z6)
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)
let t p = QCheck_alcotest.to_alcotest p

(* ------------------------------ 1. compact eval = boxed eval ----------- *)

let compact_eval_eq_boxed (type a) name (ops : a Intf.ops) ~(zero : a) ~(one : a)
    ~(mk : int -> a) =
  t
    (QCheck.Test.make ~count:60
       ~name:(Printf.sprintf "compact eval = boxed eval: %s" name)
       QCheck.(int_range 0 100000)
       (fun seed ->
         let c = Circuit_gen.random_circuit ~zero ~one ~mk seed 6 in
         let o = Opt.run ~zero ~one ~equal:ops.Intf.equal c in
         let cc = Compact.of_circuit o.Opt.circuit in
         let v = function "w", [ i ] -> mk ((i * 31) + seed) | _ -> zero in
         ops.Intf.equal (Compact.eval ops cc v) (Circuit.eval ops o.Opt.circuit v)))

(* [eval_into] writes every gate with unchecked stores, so a caller's
   value array shorter than the circuit is refused before any write. *)
let eval_into_short_array () =
  let b = Circuit.builder () in
  let x = Circuit.input b ("w", [ 0 ]) in
  let cc = Compact.of_circuit (Circuit.finish b ~output:(Circuit.add b [ x; x ])) in
  let short = Array.make (cc.Compact.n - 1) (-1) in
  (match Compact.eval_into nat_ops cc (fun _ -> 5) short with
  | () -> Alcotest.fail "a short value array was accepted"
  | exception Invalid_argument _ -> ());
  check_bool "short array untouched" true (Array.for_all (fun v -> v = -1) short);
  let exact = Array.make cc.Compact.n 0 in
  Compact.eval_into nat_ops cc (fun _ -> 5) exact;
  check_int "exact-length array" 10 exact.(cc.Compact.output)

(* ------------------------------ 2. dynamic differential --------------- *)

let dyn_eq_static (type a) mode name (ops : a Intf.ops) ~(zero : a) ~(one : a)
    ~(mk : int -> a) =
  t
    (QCheck.Test.make ~count:40
       ~name:(Printf.sprintf "Dyn = Compact.eval = Circuit.eval: %s" name)
       QCheck.(
         pair (int_range 0 1000)
           (small_list (small_list (pair (int_range 0 5) (int_range 0 50)))))
       (fun (seed, batches) ->
         let c = Circuit_gen.random_circuit ~zero ~one ~mk seed 6 in
         let o = Opt.run ~zero ~one ~equal:ops.Intf.equal c in
         let vals = Array.init 6 mk in
         let valuation = function "w", [ i ] -> vals.(i) | _ -> zero in
         let d = Dyn.create ~mode ops o.Opt.circuit valuation in
         (* runtime gate ids are the optimized circuit's, so a static
            evaluation of the same circuit lines up gate by gate *)
         let cc = Compact.of_circuit o.Opt.circuit in
         let static = Array.make cc.Compact.n zero in
         List.for_all
           (fun batch ->
             let writes =
               List.filter_map
                 (fun (i, x) ->
                   let key = ("w", [ i ]) in
                   if Dyn.has_input d key then Some (key, i, mk x) else None)
                 batch
             in
             Dyn.set_inputs d (List.map (fun (key, _, v) -> (key, v)) writes);
             List.iter (fun (_, i, v) -> vals.(i) <- v) writes;
             Compact.eval_into ops cc valuation static;
             let ok = ref (Dyn.num_gates d = cc.Compact.n) in
             for id = 0 to Dyn.num_gates d - 1 do
               if not (ops.Intf.equal (Dyn.gate_value d id) static.(id)) then ok := false
             done;
             !ok && ops.Intf.equal (Dyn.value d) (Circuit.eval ops o.Opt.circuit valuation))
           batches))

(* end-to-end through the engine on random sparse databases: the
   maintained value, a static evaluation of the engine's circuit, and the
   brute-force reference agree after batched updates *)
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

let engine_eq_reference (type a) name (ops : a Intf.ops) (mk : int -> a) ~count =
  t
    (QCheck.Test.make ~count
       ~name:(Printf.sprintf "engine = Circuit.eval = reference: %s" name)
       QCheck.(pair (int_range 4 30) (int_range 0 10000))
       (fun (n, seed) ->
         let g = Graphs.Gen.random_bounded_degree ~seed ~n ~max_deg:3 in
         let inst = Db.Instance.of_graph g in
         let w = Db.Weights.create ~name:"w" ~arity:1 ~zero:ops.Intf.zero in
         Db.Weights.fill_unary w ~n (fun i -> mk ((i * 7) + seed));
         let weights = Db.Weights.bundle [ w ] in
         let ev = Engine.Eval.prepare ops ~tfa_rounds:1 inst weights expr_wedge in
         let valuation (wn, tup) = Db.Weights.get (Db.Weights.find weights wn) tup in
         let rng = Graphs.Rand.create (seed + 1) in
         let ok = ref true in
         for round = 1 to 3 do
           let batch =
             List.init 5 (fun j ->
                 ("w", [ Graphs.Rand.int rng n ], mk (seed + (round * 17) + j)))
           in
           (* write through so the reference sees the same weights *)
           List.iter (fun (_, tup, v) -> Db.Weights.set w tup v) batch;
           Engine.Eval.update_many ev batch;
           let got = Engine.Eval.value ev in
           let static = Circuit.eval ops (Engine.Eval.circuit ev) valuation in
           let want = Engine.Reference.eval ops inst weights expr_wedge in
           if not (ops.Intf.equal got static && ops.Intf.equal got want)
           then ok := false
         done;
         !ok))

(* the one-shot [Eval.evaluate] (compile + Compact.eval, no dynamic
   structure), the maintained value of [Eval.prepare] and the brute-force
   reference agree *)
let evaluate_eq_prepare (type a) name (ops : a Intf.ops) (mk : int -> a) ~count =
  t
    (QCheck.Test.make ~count
       ~name:(Printf.sprintf "engine evaluate = prepare = reference: %s" name)
       QCheck.(pair (int_range 4 30) (int_range 0 10000))
       (fun (n, seed) ->
         let g = Graphs.Gen.random_bounded_degree ~seed ~n ~max_deg:3 in
         let inst = Db.Instance.of_graph g in
         let w = Db.Weights.create ~name:"w" ~arity:1 ~zero:ops.Intf.zero in
         Db.Weights.fill_unary w ~n (fun i -> mk ((i * 7) + seed));
         let weights = Db.Weights.bundle [ w ] in
         let once = Engine.Eval.evaluate ops ~tfa_rounds:1 inst weights expr_wedge in
         let ev = Engine.Eval.prepare ops ~tfa_rounds:1 inst weights expr_wedge in
         let want = Engine.Reference.eval ops inst weights expr_wedge in
         ops.Intf.equal once want && ops.Intf.equal (Engine.Eval.value ev) want))

(* A Dyn that is handed a whole new valuation in one batch ends in the
   same state, gate by gate, as a Dyn created under that valuation. *)
let dyn_revaluation =
  t
    (QCheck.Test.make ~count:60 ~name:"Dyn: whole-valuation batch = fresh create"
       QCheck.(int_range 0 100000)
       (fun seed ->
         let c = Circuit_gen.random_circuit ~zero:0 ~one:1 ~mk:(fun i -> i mod 7) seed 6 in
         let o = Opt.run ~zero:0 ~one:1 ~equal:Int.equal c in
         let v1 = function "w", [ i ] -> (i + seed) mod 7 | _ -> 0 in
         let v2 = function "w", [ i ] -> ((i * 5) + 1) mod 11 | _ -> 0 in
         let d = Dyn.create nat_ops o.Opt.circuit v1 in
         let all =
           List.filter_map
             (fun i ->
               let key = ("w", [ i ]) in
               if Dyn.has_input d key then Some (key, v2 key) else None)
             (List.init 6 Fun.id)
         in
         Dyn.set_inputs d all;
         let fresh = Dyn.create nat_ops o.Opt.circuit v2 in
         Dyn.num_gates d = Dyn.num_gates fresh
         && List.for_all
              (fun id -> Dyn.gate_value d id = Dyn.gate_value fresh id)
              (List.init (Dyn.num_gates d) Fun.id)))

(* ------------------------------ 2b. the CSR layout --------------------- *)

(* [of_circuit] lays gates out in topological order — every child id is
   strictly below its gate's, the CSR offsets are monotone and cover the
   child array — which is what lets [eval_into] and the wave engine walk
   the arrays without bounds checks; [validate] accepts every layout it
   produces, and [to_circuit] inverts it. *)
let layout_is_topological =
  t
    (QCheck.Test.make ~count:60 ~name:"compact layout is topological"
       QCheck.(pair bool (int_range 0 100000))
       (fun (optimize, seed) ->
         let c = Circuit_gen.random_circuit ~zero:0 ~one:1 ~mk:(fun i -> i mod 7) seed 6 in
         let c =
           if optimize then (Opt.run ~zero:0 ~one:1 ~equal:Int.equal c).Opt.circuit else c
         in
         let cc = Compact.of_circuit c in
         Compact.validate cc;
         let ok = ref (cc.Compact.n = Array.length c.Circuit.nodes) in
         for id = 0 to cc.Compact.n - 1 do
           if cc.Compact.child_off.(id + 1) < cc.Compact.child_off.(id) then ok := false;
           for k = cc.Compact.child_off.(id) to cc.Compact.child_off.(id + 1) - 1 do
             if cc.Compact.children.(k) >= id then ok := false
           done
         done;
         !ok
         && cc.Compact.child_off.(cc.Compact.n) = Array.length cc.Compact.children
         (* every input key resolves to its own gate, and a key with an
            unknown symbol or an element above every input's to none *)
         && Seq.for_all
              (fun id ->
                cc.Compact.opcode.(id) <> Compact.op_input
                || Compact.input_gate cc cc.Compact.input_keys.(cc.Compact.arg.(id)) = id)
              (Seq.init cc.Compact.n Fun.id)
         && Compact.input_gate cc ("u", [ 0 ]) = -1
         &&
         let top =
           Array.fold_left (fun m (_, tuple) -> List.fold_left max m tuple) 0
             cc.Compact.input_keys
         in
         Compact.input_gate cc ("w", [ top + 1 ]) = -1))

(* [parents] lists exactly every (parent, slot) of every child array:
   each gate's references, read off the child arrays in gate order, so
   with parent ids ascending and a repeated child's slots in order.
   [Dyn]'s waves and the enumeration index both rely on that order. *)
let parents_csr =
  t
    (QCheck.Test.make ~count:60 ~name:"Compact.parents lists every child reference in order"
       QCheck.(pair bool (int_range 0 100000))
       (fun (optimize, seed) ->
         let c = Circuit_gen.random_circuit ~zero:0 ~one:1 ~mk:(fun i -> i mod 7) seed 6 in
         let c =
           if optimize then (Opt.run ~zero:0 ~one:1 ~equal:Int.equal c).Opt.circuit else c
         in
         let cc = Compact.of_circuit c in
         let n = cc.Compact.n and off = cc.Compact.child_off in
         let want = Array.make n [] in
         for id = n - 1 downto 0 do
           for k = off.(id + 1) - 1 downto off.(id) do
             let g = cc.Compact.children.(k) in
             want.(g) <- (id, k - off.(id)) :: want.(g)
           done
         done;
         let par_off, par_gate, par_slot = Compact.parents cc in
         Array.length par_off = n + 1
         && par_off.(0) = 0
         && par_off.(n) = Array.length par_gate
         && Array.length par_slot = Array.length par_gate
         && Seq.for_all
              (fun g ->
                par_off.(g) <= par_off.(g + 1)
                && List.init
                     (par_off.(g + 1) - par_off.(g))
                     (fun j -> (par_gate.(par_off.(g) + j), par_slot.(par_off.(g) + j)))
                   = want.(g))
              (Seq.init n Fun.id)))

let to_circuit_round_trip =
  t
    (QCheck.Test.make ~count:60 ~name:"Compact.to_circuit inverts of_circuit"
       QCheck.(int_range 0 100000)
       (fun seed ->
         let c = Circuit_gen.random_circuit ~zero:0 ~one:1 ~mk:(fun i -> i mod 7) seed 6 in
         let o = (Opt.run ~zero:0 ~one:1 ~equal:Int.equal c).Opt.circuit in
         let back = Compact.to_circuit (Compact.of_circuit o) in
         let v = function "w", [ i ] -> (i * 13) + seed | _ -> 0 in
         back.Circuit.output = o.Circuit.output
         && back.Circuit.nodes = o.Circuit.nodes
         && Circuit.eval nat_ops back v = Circuit.eval nat_ops o v))

(* ------------------------------ 3. rollback on the compact runtime ----- *)

let snapshot d = Array.init (Dyn.num_gates d) (Dyn.gate_value d)

let same_values (type a) (ops : a Intf.ops) (xs : a array) (ys : a array) =
  Array.length xs = Array.length ys
  &&
  let ok = ref true in
  Array.iteri (fun i x -> if not (ops.Intf.equal x ys.(i)) then ok := false) xs;
  !ok

let rollback_identity_compact (type a) mode name (ops : a Intf.ops) ~(zero : a)
    ~(one : a) ~(mk : int -> a) =
  t
    (QCheck.Test.make ~count:60
       ~name:(Printf.sprintf "compact rollback is the identity: %s" name)
       QCheck.(
         triple (int_range 0 100000) (int_range 1 12)
           (small_list (pair (int_range 0 5) (int_range 0 50))))
       (fun (seed, fuse, batch) ->
         let c = Circuit_gen.random_circuit ~zero ~one ~mk seed 6 in
         let vals = Array.init 6 (fun i -> mk ((i * 3) + seed)) in
         let valuation = function "w", [ i ] -> vals.(i) | _ -> zero in
         let d = Dyn.create ~mode ops c valuation in
         let writes =
           List.filter_map
             (fun (i, x) ->
               let key = ("w", [ i ]) in
               if Dyn.has_input d key then Some (key, i, mk x) else None)
             batch
         in
         let dyn_writes = List.map (fun (key, _, v) -> (key, v)) writes in
         let pre = snapshot d in
         let ticks = ref 0 in
         Dyn.set_fault_hook d
           (Some
              (fun _ ->
                incr ticks;
                if !ticks = fuse then failwith "scheduled fault"));
         let commit () =
           List.iter (fun (_, i, v) -> vals.(i) <- v) writes;
           ops.Intf.equal (Dyn.value d) (Circuit.eval ops c valuation)
         in
         match Dyn.set_inputs d dyn_writes with
         | () ->
             Dyn.set_fault_hook d None;
             commit ()
         | exception Dyn.Rolled_back _ ->
             Dyn.set_fault_hook d None;
             if Dyn.poisoned d <> None then
               QCheck.Test.fail_report "rolled-back circuit must not be poisoned";
             if not (same_values ops pre (snapshot d)) then
               QCheck.Test.fail_report
                 "rollback did not restore every compact gate value";
             Dyn.set_inputs d dyn_writes;
             commit ()))

(* ------------------------------ 3b. what-if queries -------------------- *)

(* A circuit around one wide permanent — k rows, up to 9 columns, every
   entry one of the six inputs — so a what-if write lands in several
   slots of it and the touched leaves meet at inner segment-tree nodes. *)
let wide_perm_circuit ~zero ~one seed =
  let b = Circuit.builder () in
  let w = Array.init 6 (fun i -> Circuit.input b ("w", [ i ])) in
  let k = 1 + (seed mod 3) and ncols = 1 + (seed / 3 mod 9) in
  let p =
    Circuit.perm b
      (Array.init k (fun r -> Array.init ncols (fun c -> w.(((r * 7) + (c * 3) + seed) mod 6))))
  in
  let c0 = Circuit.const b zero and c1 = Circuit.const b one in
  Circuit.finish b ~output:(Circuit.add b [ p; Circuit.mul b [ p; w.(0); c1 ]; c0 ])

(* Everything a what-if must leave as it was: the committed gate values
   (as a list, beside them every permanent's permanent and entries and
   every counter), the journal's length and bytes, and the poison flag. *)
let committed_state (type a) (d : a Dyn.t) =
  let vals = ref (Array.to_list d.Dyn.values) and ints = ref [] in
  Array.iteri
    (fun id aux ->
      let nslots = d.Dyn.cc.Compact.child_off.(id + 1) - d.Dyn.cc.Compact.child_off.(id) in
      let entries ncols get = List.init nslots (fun i -> get ~row:(i / ncols) ~col:(i mod ncols)) in
      match aux with
      | Dyn.APerm (Dyn.PSeg s, ncols) ->
          vals := (Perm.Segtree.perm s :: entries ncols (Perm.Segtree.get s)) @ !vals
      | Dyn.APerm (Dyn.PRing s, ncols) ->
          vals := (Perm.Ring.perm s :: entries ncols (Perm.Ring.get s)) @ !vals
      | Dyn.APerm (Dyn.PFin s, ncols) ->
          vals := (Perm.Finite.perm s :: entries ncols (Perm.Finite.get s)) @ !vals;
          ints := Array.to_list s.Perm.Finite.counts @ !ints
      | Dyn.ACount counts -> ints := Array.to_list counts @ !ints
      | Dyn.ANone -> ())
    d.Dyn.aux;
  let j = Option.get (Dyn.journal d) in
  (!vals, (Journal.length j :: Journal.bytes j :: !ints), Dyn.poisoned d)

let same_state (type a) (ops : a Intf.ops) (v1, i1, p1) (v2, i2, p2) =
  List.length v1 = List.length v2 && List.for_all2 ops.Intf.equal v1 v2 && i1 = i2 && p1 = p2

(* A what-if query ([value_with], and [value] inside [with_temp]) equals
   the two-wave oracle — [set_inputs] the temporary writes on a twin
   structure, read, [set_inputs] the prior values back — and writes
   nothing: every committed value, permanent, counter and the journal
   are the same after it. One to three writes, duplicate keys included. *)
let what_if_eq_two_waves (type a) mode name (ops : a Intf.ops) ~(zero : a) ~(one : a)
    ~(mk : int -> a) =
  t
    (QCheck.Test.make ~count:150
       ~name:(Printf.sprintf "what-if = set, read, set back; writes nothing: %s" name)
       QCheck.(
         triple (int_range 0 100000) bool
           (list_of_size (Gen.int_range 1 3) (pair (int_range 0 5) (int_range 0 50))))
       (fun (seed, wide, temp) ->
         let c =
           if wide then wide_perm_circuit ~zero ~one seed
           else Circuit_gen.random_circuit ~zero ~one ~mk seed 6
         in
         let valuation = function "w", [ i ] -> mk ((i * 3) + seed) | _ -> zero in
         let d = Dyn.create ~mode ops c valuation in
         let twin = Dyn.create ~mode ops c valuation in
         ignore (Dyn.enable_journal d);
         let committed = [ (("w", [ seed mod 6 ]), mk (seed + 1)) ] in
         Dyn.set_inputs d committed;
         Dyn.set_inputs twin committed;
         let writes = List.map (fun (i, x) -> (("w", [ i ]), mk x)) temp in
         let pre = committed_state d in
         let got = Dyn.value_with d writes in
         let inside = Dyn.with_temp d writes (fun () -> Dyn.value d) in
         let known = List.filter (fun (key, _) -> Dyn.has_input twin key) writes in
         let back = List.map (fun (key, _) -> (key, Option.get (Dyn.input_value twin key))) known in
         Dyn.set_inputs twin known;
         let want = Dyn.value twin in
         Dyn.set_inputs twin back;
         if not (ops.Intf.equal got want && ops.Intf.equal inside want) then
           QCheck.Test.fail_report "what-if disagrees with the two-wave oracle";
         if not (same_state ops pre (committed_state d)) then
           QCheck.Test.fail_report "a what-if wrote committed state";
         ops.Intf.equal (Dyn.value d) (Dyn.value twin)))

(* End to end: [Eval.query] at every point of a random sparse database
   agrees with [Engine.Reference], for one and two free variables, after
   a batch of committed updates. *)
let query_eq_reference (type a) name (ops : a Intf.ops) (mk : int -> a) =
  let one_free =
    Logic.Expr.Sum
      ( [ "y" ],
        Logic.Expr.Mul [ Logic.Expr.Guard (e "x" "y"); Logic.Expr.Weight ("w", [ vx "y" ]) ] )
  and two_free =
    Logic.Expr.Mul
      [
        Logic.Expr.Guard (e "x" "y");
        Logic.Expr.Weight ("w", [ vx "x" ]);
        Logic.Expr.Weight ("w", [ vx "y" ]);
      ]
  in
  t
    (QCheck.Test.make ~count:15
       ~name:(Printf.sprintf "Eval.query = reference: %s" name)
       QCheck.(pair (int_range 4 16) (int_range 0 10000))
       (fun (n, seed) ->
         let g = Graphs.Gen.random_bounded_degree ~seed ~n ~max_deg:3 in
         let inst = Db.Instance.of_graph g in
         let w = Db.Weights.create ~name:"w" ~arity:1 ~zero:ops.Intf.zero in
         Db.Weights.fill_unary w ~n (fun i -> mk ((i * 7) + seed));
         let weights = Db.Weights.bundle [ w ] in
         List.for_all
           (fun (expr, vars) ->
             let ev = Engine.Eval.prepare ops ~tfa_rounds:1 inst weights expr in
             let batch = List.init 3 (fun j -> ("w", [ (seed + (5 * j)) mod n ], mk (seed + j))) in
             List.iter (fun (_, tup, v) -> Db.Weights.set w tup v) batch;
             Engine.Eval.update_many ev batch;
             let points =
               if vars = 1 then List.init n (fun x -> [ x ])
               else List.concat (List.init n (fun x -> List.init n (fun y -> [ x; y ])))
             in
             List.for_all
               (fun args ->
                 let env = List.combine (Engine.Eval.(ev.free_vars)) args in
                 ops.Intf.equal (Engine.Eval.query ev args)
                   (Engine.Reference.eval ops inst weights ~env expr))
               points)
           [ (one_free, 1); (two_free, 2) ]))

(* ------------------------------ 4. loader fuzz ------------------------- *)

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let with_tmp f =
  let path = Filename.temp_file "sparseq_test" ".spqc" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () ->
      f path)

(* a serialized random optimized circuit, as bytes *)
let serialized seed =
  let c = Circuit_gen.random_circuit ~zero:0 ~one:1 ~mk:(fun i -> i mod 7) seed 6 in
  let o = Opt.run ~zero:0 ~one:1 c in
  let cc = Compact.of_circuit o.Opt.circuit in
  with_tmp (fun path ->
      Compact.save ~tag:"nat" cc path;
      read_file path)

let rejected bytes =
  with_tmp (fun path ->
      write_file path bytes;
      match Compact.load path with
      | exception Robust.Error (Robust.Bad_input _) -> true
      | exception e ->
          QCheck.Test.fail_reportf "wrong exception %s" (Printexc.to_string e)
      | _ -> false)

let fuzz_bit_flips =
  t
    (QCheck.Test.make ~count:120 ~name:"loader fuzz: any bit flip is Bad_input"
       QCheck.(pair (int_range 0 1000) (int_range 0 1_000_000))
       (fun (seed, flip) ->
         let bytes = serialized seed in
         let bit = flip mod (String.length bytes * 8) in
         let corrupt = Bytes.of_string bytes in
         let i = bit / 8 in
         Bytes.set corrupt i (Char.chr (Char.code (Bytes.get corrupt i) lxor (1 lsl (bit mod 8))));
         rejected (Bytes.to_string corrupt)))

let fuzz_truncations =
  t
    (QCheck.Test.make ~count:120 ~name:"loader fuzz: any truncation is Bad_input"
       QCheck.(pair (int_range 0 1000) (int_range 0 1_000_000))
       (fun (seed, cut) ->
         let bytes = serialized seed in
         let keep = cut mod String.length bytes in
         rejected (String.sub bytes 0 keep)))

let fuzz_version_byte =
  t
    (QCheck.Test.make ~count:40 ~name:"loader fuzz: version mutations are Bad_input"
       QCheck.(pair (int_range 0 1000) (int_range 0 255))
       (fun (seed, b) ->
         let bytes = serialized seed in
         (* byte 4 is the version digit of "SPQC1\n"; any other value must
            be rejected as an unsupported version, not mis-parsed *)
         QCheck.assume (Char.chr b <> bytes.[4]);
         let corrupt = Bytes.of_string bytes in
         Bytes.set corrupt 4 (Char.chr b);
         rejected (Bytes.to_string corrupt)))

let fuzz_trailing_garbage () =
  let bytes = serialized 7 in
  check_bool "trailing bytes rejected" true (rejected (bytes ^ "\x00"));
  check_bool "doubled file rejected" true (rejected (bytes ^ bytes));
  check_bool "empty file rejected" true (rejected "")

let save_load_save_identity =
  t
    (QCheck.Test.make ~count:40 ~name:"save -> load -> save is byte-identical"
       QCheck.(int_range 0 100000)
       (fun seed ->
         let c = Circuit_gen.random_circuit ~zero:0 ~one:1 ~mk:(fun i -> (i mod 9) - 4) seed 6
         in
         let o = Opt.run ~zero:0 ~one:1 c in
         let cc = Compact.of_circuit o.Opt.circuit in
         with_tmp (fun p1 ->
             with_tmp (fun p2 ->
                 Compact.save ~tag:"int" cc p1;
                 let cc2, tag = Compact.load p1 in
                 check_string "tag survives" "int" tag;
                 Compact.save ~tag cc2 p2;
                 read_file p1 = read_file p2))))

let roundtrip_eval () =
  (* save → load preserves evaluation bit-for-bit *)
  List.iter
    (fun seed ->
      let c = Circuit_gen.random_circuit ~zero:0 ~one:1 ~mk:(fun i -> i mod 7) seed 6 in
      let o = Opt.run ~zero:0 ~one:1 c in
      let cc = Compact.of_circuit o.Opt.circuit in
      let v = function "w", [ i ] -> i + 2 | _ -> 0 in
      with_tmp (fun path ->
          Compact.save ~tag:"nat" cc path;
          let cc2, _ = Compact.load path in
          check_int (Printf.sprintf "seed %d reload eval" seed) (Compact.eval nat_ops cc v)
            (Compact.eval nat_ops cc2 v)))
    [ 3; 44; 512; 9000 ]

(* Crash-safe saves: both writers fill a [path.tmp] sibling and rename it
   over [path] only once complete, so a save that raises part-way leaves
   the previous file byte-identical and loadable, and no temp file behind.
   A journal save is made to raise after its header is written by a value
   that turns unmarshallable after it was appended. *)
type cell = Num of int | Fn of (unit -> int)

let saves_are_crash_safe () =
  with_tmp @@ fun path ->
  let tmp = path ^ ".tmp" in
  let no_tmp what = check_bool what false (Sys.file_exists tmp) in
  let j = Journal.create () in
  Journal.append j [ (("w", [ 0 ]), ref (Num 1)) ];
  Journal.save j path;
  no_tmp "no temp sibling after a journal save";
  let good = read_file path in
  let bad = Journal.create () in
  let late = ref (Num 2) in
  Journal.append bad [ (("w", [ 1 ]), late) ];
  late := Fn (fun () -> 3);
  (match Journal.save bad path with
  | () -> Alcotest.fail "saving a functional value must raise"
  | exception Invalid_argument _ -> ());
  check_bool "failed journal save keeps the previous bytes" true (read_file path = good);
  no_tmp "failed journal save removes its temp file";
  check_int "previous journal still loads" 1
    (Journal.length (Journal.load path : cell ref Journal.t));
  (* the persisted circuit: a good save replaces the journal file whole,
     a save whose constant pool cannot be marshalled leaves it alone *)
  let b = Circuit.builder () in
  let cc = Compact.of_circuit (Circuit.finish b ~output:(Circuit.input b ("w", [ 0 ]))) in
  Compact.save ~tag:"nat" cc path;
  no_tmp "no temp sibling after a circuit save";
  let good = read_file path in
  let b = Circuit.builder () in
  let bad = Compact.of_circuit (Circuit.finish b ~output:(Circuit.const b (fun () -> 0))) in
  (match Compact.save bad path with
  | () -> Alcotest.fail "saving a functional constant must raise"
  | exception Invalid_argument _ -> ());
  check_bool "failed circuit save keeps the previous bytes" true (read_file path = good);
  no_tmp "failed circuit save removes its temp file";
  check_int "previous circuit still loads" 1 (fst (Compact.load path) : int Compact.t).Compact.n

(* ------------------------------ 4b. degenerate and malformed layouts -- *)

(* Degenerate shapes: a circuit of one constant gate and one of a bare
   input gate run through every layer — static eval, Dyn
   (including an update of the input that is the output) and save/load. *)
let one_gate_circuits () =
  let b = Circuit.builder () in
  let k = Circuit.finish b ~output:(Circuit.const b 42) in
  let cc = Compact.of_circuit k in
  check_int "single gate" 1 cc.Compact.n;
  check_int "const: static eval" 42 (Compact.eval nat_ops cc (fun _ -> 0));
  let d = Dyn.create nat_ops k (fun _ -> 0) in
  check_int "const: Dyn" 42 (Dyn.value d);
  check_bool "const: no inputs" false (Dyn.has_input d ("w", [ 0 ]));
  Dyn.set_inputs d [];
  check_int "const: empty batch" 42 (Dyn.value d);
  let b = Circuit.builder () in
  let x = Circuit.finish b ~output:(Circuit.input b ("w", [ 0 ])) in
  let cx = Compact.of_circuit x in
  check_int "input: static eval" 9 (Compact.eval nat_ops cx (fun _ -> 9));
  List.iter
    (fun mode ->
      let d = Dyn.create ~mode nat_ops x (fun _ -> 9) in
      check_int "input: Dyn" 9 (Dyn.value d);
      Dyn.set_input d ("w", [ 0 ]) 4;
      check_int "input: Dyn after update" 4 (Dyn.value d);
      check_int "input: gate value" 4 (Dyn.gate_value d 0))
    [ Dyn.General; Dyn.Ring ];
  with_tmp @@ fun path ->
  Compact.save ~tag:"nat" cc path;
  let back, tag = Compact.load path in
  check_string "tag" "nat" tag;
  check_int "const: reloaded" 42 (Compact.eval nat_ops (back : int Compact.t) (fun _ -> 0))

(* [validate] — the gate every loaded file passes through — rejects each
   way a CSR layout can be malformed, as a structured [Bad_input]. *)
let validate_rejects_malformed () =
  let b = Circuit.builder () in
  let a = Circuit.input b ("w", [ 0 ]) and c = Circuit.input b ("w", [ 1 ]) in
  let two = Circuit.const b 2 in
  let s = Circuit.add b [ a; c ] in
  let m = Circuit.mul b [ s; two ] in
  let p = Circuit.perm b [| [| a; c |]; [| two; s |] |] in
  let cc = Compact.of_circuit (Circuit.finish b ~output:(Circuit.add b [ m; p ])) in
  Compact.validate cc;
  let rejects what (bad : int Compact.t) =
    match Compact.validate bad with
    | () -> Alcotest.failf "%s accepted" what
    | exception Robust.Error (Robust.Bad_input _) -> ()
  in
  let gate_with op =
    let rec go id = if cc.Compact.opcode.(id) = op then id else go (id + 1) in
    go 0
  in
  let id_add = gate_with Compact.op_add in
  let first_child = cc.Compact.child_off.(id_add) in
  let set a i x =
    let a = Array.copy a in
    a.(i) <- x;
    a
  in
  rejects "forward child reference"
    { cc with Compact.children = set cc.Compact.children first_child id_add };
  rejects "negative child" { cc with Compact.children = set cc.Compact.children first_child (-1) };
  rejects "output out of range" { cc with Compact.output = cc.Compact.n };
  rejects "unknown opcode" { cc with Compact.opcode = set cc.Compact.opcode id_add 9 };
  rejects "add gate with an arg" { cc with Compact.arg = set cc.Compact.arg id_add 0 };
  rejects "short offsets"
    { cc with Compact.child_off = Array.sub cc.Compact.child_off 0 cc.Compact.n };
  rejects "offsets past the children"
    {
      cc with
      Compact.children =
        Array.sub cc.Compact.children 0 (Array.length cc.Compact.children - 1);
    };
  rejects "perm dimensions disagree with its children"
    { cc with Compact.perm_cols = set cc.Compact.perm_cols 0 3 };
  rejects "duplicate input key"
    { cc with Compact.input_keys = set cc.Compact.input_keys 1 cc.Compact.input_keys.(0) };
  rejects "constant pool too large"
    { cc with Compact.consts = Array.append cc.Compact.consts [| 7 |] }

(* ------------------------------ 4c. the key index ---------------------- *)

let show_key (w, tuple) = w ^ "(" ^ String.concat "," (List.map string_of_int tuple) ^ ")"

(* Keys that pack, and keys that spill: a negative element, and a packed
   value too wide for an int beside it *)
let narrow_keys =
  [ ("w", [ 0; 1 ]); ("w", [ 1; 0 ]); ("w", [ 1 ]); ("w", []); ("v", [ 0; 1 ]); ("w", [ -1; 2 ]) ]

let wide_keys = ("v", [ max_int / 2; 1 ]) :: narrow_keys

let absent_keys =
  [
    ("w", [ 0; 0 ]); ("u", [ 0; 1 ]); ("w", [ 0; 1; 0 ]); ("w", [ 0 ]); ("w", [ -1; 1 ]);
    ("v", [ 2; 1 ]);
  ]

(* The key index against the keys it is built from: every input key finds
   its gate, whether it packs or spills, and a key of no input finds none.
   Lookups use fresh copies of the symbols. *)
let packed_keys () =
  let check inputs others =
    let keys = Compact.build_keys (fun f -> List.iteri (fun g k -> f k g) inputs) in
    let gate (w, tuple) = Compact.gate_of keys (String.concat "" [ w ]) tuple in
    List.iteri (fun g k -> check_int ("input " ^ show_key k) g (gate k)) inputs;
    List.iter (fun k -> check_int ("no input " ^ show_key k) (-1) (gate k)) others
  in
  check narrow_keys absent_keys;
  check wide_keys (("v", [ max_int / 2; 0 ]) :: absent_keys)

(* Σᵢ (i + 1)·xᵢ over the inputs [keys], so each input reaches the
   output with its own coefficient *)
let key_circuit keys =
  let b = Circuit.builder () in
  let gs = List.map (Circuit.input b) keys in
  let terms = List.mapi (fun i g -> Circuit.mul b [ g; Circuit.const b (i + 1) ]) gs in
  Circuit.finish b ~output:(Circuit.add b terms)

(* A Dyn over inputs that pack and inputs that spill answers every write
   and read the way [Compact.eval] does under the same valuation. *)
let dyn_spilled_keys () =
  let c = key_circuit wide_keys in
  let cc = Compact.of_circuit c in
  let vals = Hashtbl.create 8 in
  List.iteri (fun i k -> Hashtbl.replace vals k (i + 3)) wide_keys;
  let valuation k = Hashtbl.find vals k in
  let d = Dyn.create nat_ops c valuation in
  let agrees what = check_int what (Compact.eval nat_ops cc valuation) (Dyn.value d) in
  agrees "create";
  List.iteri
    (fun i k ->
      Hashtbl.replace vals k ((10 * i) + 1);
      Dyn.set_input d k ((10 * i) + 1);
      agrees ("set_input " ^ show_key k);
      Alcotest.(check (option int)) ("input_value " ^ show_key k) (Some ((10 * i) + 1))
        (Dyn.input_value d k))
    wide_keys;
  let batch = List.mapi (fun i k -> (k, (i * i) + 2)) (List.rev wide_keys) in
  List.iter (fun (k, v) -> Hashtbl.replace vals k v) batch;
  Dyn.set_inputs d batch;
  agrees "set_inputs";
  let committed = Dyn.value d in
  let what_if = [ (("w", [ -1; 2 ]), 100); (("v", [ max_int / 2; 1 ]), 50); (("u", [ 0 ]), 9) ] in
  let temp k = match List.assoc_opt k what_if with Some v -> v | None -> valuation k in
  check_int "value_with" (Compact.eval nat_ops cc temp) (Dyn.value_with d what_if);
  check_int "value_with writes nothing" committed (Dyn.value d);
  List.iter
    (fun k ->
      check_bool ("has_input " ^ show_key k) false (Dyn.has_input d k);
      Alcotest.(check (option int)) ("input_value " ^ show_key k) None (Dyn.input_value d k);
      Alcotest.check_raises ("set_input " ^ show_key k)
        (Invalid_argument "Dyn.set_input: unknown input (weight symbol, tuple)") (fun () ->
          Dyn.set_input d k 1))
    (("v", [ max_int / 2; 0 ]) :: absent_keys)

(* The index is not saved: [load] rebuilds it, and every key resolves to
   the same gate after a save → load round trip. *)
let keys_survive_reload () =
  let random = Circuit_gen.random_circuit ~zero:0 ~one:1 ~mk:(fun i -> i mod 7) 44 6 in
  List.iter
    (fun c ->
      let cc = Compact.of_circuit c in
      with_tmp @@ fun path ->
      Compact.save ~tag:"nat" cc path;
      let back, _ = Compact.load path in
      Array.iteri
        (fun g -> function
          | Circuit.Input k ->
              check_int ("before " ^ show_key k) g (Compact.input_gate cc k);
              check_int ("after " ^ show_key k) g (Compact.input_gate (back : int Compact.t) k)
          | _ -> ())
        c.Circuit.nodes)
    [ key_circuit wide_keys; (Opt.run ~zero:0 ~one:1 random).Opt.circuit ]

(* [of_circuit] and [load] both reject a key that two input gates share,
   one that packs and one that spills. *)
let duplicate_keys_rejected () =
  let c = key_circuit narrow_keys in
  let cc = Compact.of_circuit c in
  let rejected what f =
    match f () with
    | _ -> Alcotest.failf "%s accepted a duplicate key" what
    | exception Robust.Error (Robust.Bad_input _) -> ()
  in
  List.iter
    (fun (over, key) ->
      let g = Compact.input_gate cc over in
      let nodes = Array.copy c.Circuit.nodes in
      nodes.(g) <- Circuit.Input key;
      rejected "of_circuit" (fun () -> Compact.of_circuit { c with Circuit.nodes });
      let input_keys = Array.copy cc.Compact.input_keys in
      input_keys.(cc.Compact.arg.(g)) <- key;
      with_tmp @@ fun path ->
      Compact.save { cc with Compact.input_keys } path;
      rejected "load" (fun () -> (Compact.load path : int Compact.t * string)))
    [ (("w", [ 1; 0 ]), ("w", [ 0; 1 ])); (("w", [ 1 ]), ("w", [ -1; 2 ])) ]

(* ------------------------------ 5. golden format stability ------------- *)

(* The two .spqc files under test/golden/ were written by test/gen_golden.ml
   when the SPQC1 format was introduced; every future reader must keep
   loading them to these exact values. Regenerating the files instead of
   keeping them loadable is a format break. *)
let golden_path name =
  (* `dune runtest` runs the binary from _build/default/test with the
     (deps) stanza's copy of golden/ beside it; a bare `dune exec` from
     the project root finds the source-tree fixtures instead *)
  let candidates =
    [
      Filename.concat (Filename.concat (Filename.dirname Sys.executable_name) "golden") name;
      Filename.concat "golden" name;
      Filename.concat "test/golden" name;
    ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some p -> p
  | None -> List.hd candidates

let golden_stability () =
  let cc_nat, tag_nat = Compact.load (golden_path "nat_small.spqc") in
  check_string "nat tag" "nat" tag_nat;
  let v = function "w", [ i ] -> i + 1 | _ -> 0 in
  check_int "nat golden value" 43 (Compact.eval nat_ops cc_nat v);
  let cc_int, tag_int = Compact.load (golden_path "int_perm.spqc") in
  check_string "int tag" "int" tag_int;
  check_int "int golden value" (-5)
    (Compact.eval int_ops cc_int (function
      | "w", [ i ] -> (2 * i) - 3
      | _ -> 0))

(* journal_weights.spqj was written by gen_golden before SPQJ1 grew the
   structural-op record type: the current reader must keep decoding it to
   the exact recorded batches, and re-saving it must be byte-identical —
   the weight-batch encoding is pinned forever. *)
let golden_journal_stability () =
  let module Journal = Circuits.Journal in
  let path = golden_path "journal_weights.spqj" in
  let j : int Journal.t = Journal.load path in
  check_int "batch count" 3 (Journal.length j);
  check_int "structural count" 0 (Journal.structural_count j);
  check_bool "verifies" true (Journal.verify j = None);
  (match Journal.batches j with
  | [ b0; b1; b2 ] ->
      check_int "seq 0" 0 b0.Journal.seq;
      check_int "seq 1" 1 b1.Journal.seq;
      check_int "seq 2" 2 b2.Journal.seq;
      check_bool "batch 0 writes" true
        (Journal.writes b0 = [ (("w", [ 0 ]), 5); (("w", [ 1 ]), 7) ]);
      check_bool "batch 1 empty" true (Journal.writes b1 = []);
      check_bool "batch 2 writes" true
        (Journal.writes b2 = [ (("__qv0", [ 2 ]), 1); (("w", [ 0 ]), 0) ]);
      List.iter
        (fun b -> check_bool "no structural op" true (Journal.structural b = None))
        [ b0; b1; b2 ]
  | bs -> Alcotest.failf "expected 3 batches, got %d" (List.length bs));
  let read_file p =
    let ic = open_in_bin p in
    Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
    really_input_string ic (in_channel_length ic)
  in
  let tmp = Filename.temp_file "sparseq_golden_journal" ".spqj" in
  Fun.protect ~finally:(fun () -> Sys.remove tmp) @@ fun () ->
  Journal.save j tmp;
  check_bool "re-save byte-identical" true (read_file tmp = read_file path)

(* mixed weight + structural journal round trip: the negative-length frame
   introduced for structural ops survives save/load, and a pre-extension
   reader's plausibility check would reject it rather than misdecode. *)
let journal_structural_round_trip () =
  let module Journal = Circuits.Journal in
  let j : int Journal.t = Journal.create () in
  Journal.append j [ (("w", [ 0 ]), 3) ];
  Journal.append_structural j ~insert:true ~rel:"E" ~tup:[ 1; 2 ];
  Journal.append j [];
  Journal.append_structural j ~insert:false ~rel:"E" ~tup:[ 1; 2 ];
  check_int "structural count" 2 (Journal.structural_count j);
  check_bool "verifies" true (Journal.verify j = None);
  let tmp = Filename.temp_file "sparseq_struct_journal" ".spqj" in
  Fun.protect ~finally:(fun () -> Sys.remove tmp) @@ fun () ->
  Journal.save j tmp;
  let j2 : int Journal.t = Journal.load tmp in
  check_int "batch count" 4 (Journal.length j2);
  check_int "structural count survives" 2 (Journal.structural_count j2);
  List.iter2
    (fun (b : int Journal.batch) (b2 : int Journal.batch) ->
      check_int "seq" b.Journal.seq b2.Journal.seq;
      check_bool "writes" true (Journal.writes b = Journal.writes b2);
      check_bool "structural" true (Journal.structural b = Journal.structural b2))
    (Journal.batches j) (Journal.batches j2);
  match Journal.structural (List.nth (Journal.batches j2) 1) with
  | Some { Journal.s_insert = true; s_rel = "E"; s_tup = [ 1; 2 ] } -> ()
  | _ -> Alcotest.fail "structural op did not survive the round trip"

let suite =
  [
    compact_eval_eq_boxed "nat" nat_ops ~zero:0 ~one:1 ~mk:(fun i -> i mod 7);
    compact_eval_eq_boxed "int-ring" int_ops ~zero:0 ~one:1 ~mk:(fun i -> (i mod 9) - 4);
    compact_eval_eq_boxed "bool" bool_ops ~zero:false ~one:true ~mk:(fun i -> i mod 3 = 0);
    compact_eval_eq_boxed "zmod6" z6_ops ~zero:Zmod.Z6.zero ~one:Zmod.Z6.one
      ~mk:Zmod.Z6.of_int;
    Alcotest.test_case "eval_into rejects a short value array" `Quick
      eval_into_short_array;
    dyn_eq_static Dyn.General "general/nat" nat_ops ~zero:0 ~one:1 ~mk:(fun i -> i mod 7);
    dyn_eq_static Dyn.Ring "ring/int" int_ops ~zero:0 ~one:1 ~mk:(fun i -> (i mod 9) - 4);
    dyn_eq_static Dyn.Finite "finite/zmod6" z6_ops ~zero:Zmod.Z6.zero ~one:Zmod.Z6.one
      ~mk:Zmod.Z6.of_int;
    dyn_eq_static Dyn.Finite "finite/bool" bool_ops ~zero:false ~one:true
      ~mk:(fun i -> i mod 3 = 0);
    dyn_revaluation;
    engine_eq_reference "wedge/nat" nat_ops (fun i -> i mod 5) ~count:15;
    engine_eq_reference "wedge/int-ring" int_ops (fun i -> (i mod 9) - 4) ~count:15;
    evaluate_eq_prepare "wedge/bool" bool_ops (fun i -> i mod 3 <> 0) ~count:15;
    evaluate_eq_prepare "wedge/zmod6" z6_ops Zmod.Z6.of_int ~count:15;
    layout_is_topological;
    to_circuit_round_trip;
    rollback_identity_compact Dyn.General "general/nat" nat_ops ~zero:0 ~one:1
      ~mk:(fun i -> i mod 7);
    rollback_identity_compact Dyn.Ring "ring/int" int_ops ~zero:0 ~one:1
      ~mk:(fun i -> (i mod 9) - 4);
    rollback_identity_compact Dyn.Finite "finite/zmod6" z6_ops ~zero:Zmod.Z6.zero
      ~one:Zmod.Z6.one ~mk:Zmod.Z6.of_int;
    what_if_eq_two_waves Dyn.General "general/nat" nat_ops ~zero:0 ~one:1
      ~mk:(fun i -> i mod 7);
    what_if_eq_two_waves Dyn.Ring "ring/int" int_ops ~zero:0 ~one:1
      ~mk:(fun i -> (i mod 9) - 4);
    what_if_eq_two_waves Dyn.Finite "finite/zmod6" z6_ops ~zero:Zmod.Z6.zero
      ~one:Zmod.Z6.one ~mk:Zmod.Z6.of_int;
    query_eq_reference "nat" nat_ops (fun i -> i mod 5);
    query_eq_reference "int-ring" int_ops (fun i -> (i mod 9) - 4);
    query_eq_reference "zmod6" z6_ops Zmod.Z6.of_int;
    fuzz_bit_flips;
    fuzz_truncations;
    fuzz_version_byte;
    Alcotest.test_case "loader fuzz: trailing/empty" `Quick fuzz_trailing_garbage;
    save_load_save_identity;
    Alcotest.test_case "save/load eval round trip" `Quick roundtrip_eval;
    Alcotest.test_case "saves are crash-safe" `Quick saves_are_crash_safe;
    Alcotest.test_case "1-gate circuits through every layer" `Quick one_gate_circuits;
    Alcotest.test_case "validate rejects malformed layouts" `Quick
      validate_rejects_malformed;
    Alcotest.test_case "key index: packed keys and keys outside their bounds" `Quick packed_keys;
    Alcotest.test_case "key index: Dyn over spilled keys = Compact.eval" `Quick
      dyn_spilled_keys;
    Alcotest.test_case "key index: every key resolves after a reload" `Quick
      keys_survive_reload;
    Alcotest.test_case "key index: of_circuit and load reject a duplicate key" `Quick
      duplicate_keys_rejected;
    Alcotest.test_case "golden format stability" `Quick golden_stability;
    Alcotest.test_case "golden journal stability" `Quick golden_journal_stability;
    Alcotest.test_case "journal structural round trip" `Quick
      journal_structural_round_trip;
    parents_csr;
  ]
