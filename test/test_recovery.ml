(* Tests for the transactional maintenance layer:

   1. qcheck: rollback is the identity — a fault injected at a random
      position of a random update wave leaves every gate value bit-for-bit
      at its pre-wave state, in all three update modes (General/nat,
      Ring/int, Finite/zmod6), and the rolled-back structure stays fully
      usable (the retried batch lands and agrees with a from-scratch eval);
   2. qcheck: replay = live — after random interleaved update batches and
      repairs on a journaled circuit, a fresh compile plus
      [Dyn.replay] reconstructs the exact served state;
   3. the journal's file round trip: save/load preserves every batch, the
      checksums verify, and corrupted or truncated files are rejected as
      [Bad_input] instead of being half-applied;
   4. satellite regression for write-through ordering: a fault mid-batch
      must leave the weights store at its pre-batch values (weights commit
      only after the circuit wave commits);
   5. the [`Rollback] retry policy: a transient fault is retried after an
      (injected) backoff sleep and the update succeeds, counted in
      dyn/retries;
   6. torn journal files: a mixed weight + structural journal cut at every
      byte offset loads exactly its prefix on a frame boundary and is
      [Bad_input] anywhere inside a frame;
   7. a fault inside a permanent gate's flush, in all three update modes:
      the rollback restores every gate value and rebuilds the cut-short
      permanent, so it reads as a fresh build's and the retried batch
      lands;
   8. a bare [Dyn.replay] rejects structural records as [Bad_input]. *)

open Semiring
module Circuit = Circuits.Circuit
module Dyn = Circuits.Dyn
module Journal = Circuits.Journal

let nat_ops = Intf.ops_of_module (module Instances.Nat)
let int_ops = Intf.ops_of_ring (module Instances.Int_ring)
let z6_ops = Intf.ops_of_finite (module Zmod.Z6)
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let t p = QCheck_alcotest.to_alcotest p

let snapshot d = Array.init (Dyn.num_gates d) (Dyn.gate_value d)

let same_values (type a) (ops : a Intf.ops) (xs : a array) (ys : a array) =
  Array.length xs = Array.length ys
  &&
  let ok = ref true in
  Array.iteri (fun i x -> if not (ops.Intf.equal x ys.(i)) then ok := false) xs;
  !ok

(* ------------------------- 1. rollback o partial-wave = identity ------- *)

let rollback_identity (type a) mode name (ops : a Intf.ops) ~(zero : a) ~(one : a)
    ~(mk : int -> a) =
  t
    (QCheck.Test.make ~count:60
       ~name:(Printf.sprintf "rollback is the identity: %s" name)
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
             (* the fuse outlived the wave: a plain committed update *)
             Dyn.set_fault_hook d None;
             commit ()
         | exception Dyn.Rolled_back _ ->
             Dyn.set_fault_hook d None;
             if Dyn.poisoned d <> None then
               QCheck.Test.fail_report "rolled-back circuit must not be poisoned";
             if not (same_values ops pre (snapshot d)) then
               QCheck.Test.fail_report "rollback did not restore every gate value";
             (* the structure (incl. permanent aux state) must still be
                consistent: the retried batch lands exactly *)
             Dyn.set_inputs d dyn_writes;
             commit ()))

(* ----------------------------------- 2. replay(journal) = live state --- *)

let replay_matches_live (type a) mode name (ops : a Intf.ops) ~(zero : a) ~(one : a)
    ~(mk : int -> a) =
  t
    (QCheck.Test.make ~count:40
       ~name:(Printf.sprintf "replay reconstructs live state: %s" name)
       QCheck.(
         pair (int_range 0 100000)
           (small_list (small_list (pair (int_range 0 5) (int_range 0 50)))))
       (fun (seed, batches) ->
         let c = Circuit_gen.random_circuit ~zero ~one ~mk seed 6 in
         let valuation = function "w", [ i ] -> mk i | _ -> zero in
         let d = Dyn.create ~mode ops c valuation in
         let j = Dyn.enable_journal d in
         List.iteri
           (fun k batch ->
             Dyn.set_inputs d
               (List.filter_map
                  (fun (i, x) ->
                    let key = ("w", [ i ]) in
                    if Dyn.has_input d key then Some (key, mk x) else None)
                  batch);
             (* interleaved repairs must neither change state nor journal
                anything *)
             if k mod 3 = 2 then Dyn.repair d)
           batches;
         (* empty and no-op batches commit nothing and journal nothing *)
         if Journal.length j > List.length batches then
           QCheck.Test.fail_reportf "journal recorded %d batches for %d applied"
             (Journal.length j) (List.length batches);
         let d2 = Dyn.create ~mode ops c valuation in
         Dyn.replay d2 j;
         (* replay must not append to the replaying circuit's own journal *)
         let j2 = Dyn.enable_journal d2 in
         if Journal.length j2 <> 0 then
           QCheck.Test.fail_report "replay self-appended to the journal";
         same_values ops (snapshot d) (snapshot d2)))

(* --------------------------------------- 3. journal file round trip --- *)

let journal_file_round_trip () =
  let c = Circuit_gen.random_circuit ~zero:0 ~one:1 ~mk:(fun i -> i mod 7) 42 6 in
  let valuation = function "w", [ i ] -> i + 1 | _ -> 0 in
  let d = Dyn.create ~mode:Dyn.General nat_ops c valuation in
  let j = Dyn.enable_journal d in
  List.iter
    (fun batch ->
      Dyn.set_inputs d
        (List.filter (fun (key, _) -> Dyn.has_input d key) batch))
    [
      [ (("w", [ 0 ]), 9); (("w", [ 3 ]), 2) ];
      [ (("w", [ 1 ]), 5) ];
      [ (("w", [ 2 ]), 7); (("w", [ 4 ]), 1); (("w", [ 5 ]), 4) ];
    ];
  check_bool "live journal verifies" true (Journal.verify j = None);
  let path = Filename.temp_file "sparseq_journal" ".bin" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  Journal.save j path;
  let j2 = Journal.load path in
  check_int "batch count survives" (Journal.length j) (Journal.length j2);
  check_bool "loaded journal verifies" true (Journal.verify j2 = None);
  List.iter2
    (fun (b : int Journal.batch) (b2 : int Journal.batch) ->
      check_int "seq survives" b.Journal.seq b2.Journal.seq;
      check_bool "writes survive" true (Journal.writes b = Journal.writes b2))
    (Journal.batches j) (Journal.batches j2);
  let d2 = Dyn.create ~mode:Dyn.General nat_ops c valuation in
  Dyn.replay d2 j2;
  check_int "replayed value from disk" (Dyn.value d) (Dyn.value d2);
  (* flip one payload byte: the checksum must catch it *)
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let bytes = really_input_string ic n in
  close_in ic;
  let corrupt = Bytes.of_string bytes in
  Bytes.set corrupt (n - 1) (Char.chr (Char.code (Bytes.get corrupt (n - 1)) lxor 0x5a));
  let oc = open_out_bin path in
  output_bytes oc corrupt;
  close_out oc;
  (match Journal.load path with
  | exception Robust.Error (Robust.Bad_input _) -> ()
  | exception e -> Alcotest.failf "corrupt journal: wrong exception %s" (Printexc.to_string e)
  | _ -> Alcotest.fail "corrupt journal must not load");
  (* truncate mid-record: rejected, not half-applied *)
  let oc = open_out_bin path in
  output_string oc (String.sub bytes 0 (n - 3));
  close_out oc;
  (match Journal.load path with
  | exception Robust.Error (Robust.Bad_input _) -> ()
  | exception e ->
      Alcotest.failf "truncated journal: wrong exception %s" (Printexc.to_string e)
  | _ -> Alcotest.fail "truncated journal must not load");
  (* bad magic: rejected *)
  let oc = open_out_bin path in
  output_string oc "NOTME!";
  output_string oc (String.sub bytes 6 (n - 6));
  close_out oc;
  match Journal.load path with
  | exception Robust.Error (Robust.Bad_input _) -> ()
  | exception e -> Alcotest.failf "bad magic: wrong exception %s" (Printexc.to_string e)
  | _ -> Alcotest.fail "foreign file must not load as a journal"

(* ------------------- 4. write-through ordering under mid-batch fault --- *)

let v x = Logic.Term.Var x
let e x y = Logic.Formula.Rel ("E", [ v x; v y ])

let edge_weight_expr =
  Logic.Expr.Sum
    ( [ "x"; "y" ],
      Logic.Expr.Mul
        [
          Logic.Expr.Guard (e "x" "y");
          Logic.Expr.Weight ("w", [ v "x" ]);
          Logic.Expr.Weight ("w", [ v "y" ]);
        ] )

let weighted_setup () =
  let inst = Db.Instance.of_graph (Graphs.Gen.path 6) in
  let w = Db.Weights.create ~name:"w" ~arity:1 ~zero:0 in
  Db.Weights.fill_unary w ~n:(Db.Instance.n inst) (fun i -> ((i * 5) + 2) mod 11);
  (inst, w, Db.Weights.bundle [ w ])

let unwrap what = function
  | Ok x -> x
  | Error err -> Alcotest.failf "%s: unexpected error %s" what (Robust.to_string err)

let write_through_waits_for_commit () =
  let inst, w, weights = weighted_setup () in
  let ck =
    unwrap "prepare"
      (Engine.Eval.prepare_checked nat_ops ~tfa_rounds:1 ~recover:`Fail inst weights
         edge_weight_expr)
  in
  let before = unwrap "value" (Engine.Eval.value_checked ck) in
  let pre1 = Db.Weights.get w [ 1 ] and pre3 = Db.Weights.get w [ 3 ] in
  let ticks = ref 0 in
  Engine.Eval.set_fault_hook ck
    (Some
       (fun _ ->
         incr ticks;
         if !ticks = 2 then failwith "mid-batch fault"));
  (match
     Engine.Eval.update_many_checked ck [ ("w", [ 1 ], 50); ("w", [ 3 ], 60) ]
   with
  | Error (Robust.Internal_divergence _) -> ()
  | Error err -> Alcotest.failf "wrong classification: %s" (Robust.to_string err)
  | Ok () -> Alcotest.fail "faulted batch must not report success");
  Engine.Eval.set_fault_hook ck None;
  (* no write-through happened: the store still serves the pre-batch
     weights, matching the rolled-back circuit *)
  check_int "w[1] untouched in store" pre1 (Db.Weights.get w [ 1 ]);
  check_int "w[3] untouched in store" pre3 (Db.Weights.get w [ 3 ]);
  check_int "circuit agrees with store" before
    (unwrap "value" (Engine.Eval.value_checked ck));
  (* sanity: the retried batch commits both sides together *)
  unwrap "retried batch" (Engine.Eval.update_many_checked ck [ ("w", [ 1 ], 50); ("w", [ 3 ], 60) ]);
  check_int "w[1] written after commit" 50 (Db.Weights.get w [ 1 ]);
  check_int "value tracks reference"
    (Engine.Reference.eval nat_ops inst weights edge_weight_expr)
    (unwrap "value" (Engine.Eval.value_checked ck))

(* ----------------------------- 5. bounded retry with injected sleep --- *)

let retry_recovers_transient_fault () =
  let inst, _, weights = weighted_setup () in
  let ck =
    unwrap "prepare"
      (Engine.Eval.prepare_checked nat_ops ~tfa_rounds:1 ~recover:`Rollback ~retries:2
         ~backoff_ms:8.0 inst weights edge_weight_expr)
  in
  let slept = ref [] in
  Engine.Eval.set_retry_sleep (Some (fun s -> slept := s :: !slept));
  Fun.protect ~finally:(fun () -> Engine.Eval.set_retry_sleep None) @@ fun () ->
  let retries_counter = Obs.counter ~scope:"dyn" "retries" in
  let retries0 = Obs.Counter.get retries_counter in
  let fired = ref false in
  Engine.Eval.set_fault_hook ck
    (Some
       (fun _ ->
         if not !fired then (
           fired := true;
           failwith "transient fault")));
  unwrap "update retried to success" (Engine.Eval.update_checked ck "w" [ 2 ] 9);
  Engine.Eval.set_fault_hook ck None;
  check_int "one retry counted" (retries0 + 1) (Obs.Counter.get retries_counter);
  (match !slept with
  | [ s ] -> Alcotest.(check (float 1e-9)) "first backoff is backoff_ms" 0.008 s
  | l -> Alcotest.failf "expected exactly 1 backoff sleep, got %d" (List.length l));
  check_int "retried update landed"
    (Engine.Reference.eval nat_ops inst weights edge_weight_expr)
    (unwrap "value" (Engine.Eval.value_checked ck))

(* ------------------------------ 6. journal cut at every byte offset --- *)

let torn_journal_every_offset () =
  let inst, _, weights = weighted_setup () in
  let t = Engine.Eval.prepare nat_ops ~tfa_rounds:1 inst weights edge_weight_expr in
  let j = Engine.Eval.enable_journal t in
  Engine.Eval.update t "w" [ 1 ] 7;
  Engine.Eval.insert_tuple t "E" [ 0; 2 ];
  Engine.Eval.update_many t [ ("w", [ 1 ], 3); ("w", [ 4 ], 5) ];
  Engine.Eval.delete_tuple t "E" [ 0; 2 ];
  check_int "mixed journal: 2 weight + 2 structural" 2 (Journal.structural_count j);
  let path = Filename.temp_file "sparseq_torn" ".bin" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  Journal.save j path;
  let ic = open_in_bin path in
  let bytes = really_input_string ic (in_channel_length ic) in
  close_in ic;
  (* frame boundaries: after the magic, then after each
     [length | checksum | payload] frame (structural ops negate the length) *)
  let rec frames off acc =
    if off >= String.length bytes then List.rev acc
    else
      let len = abs (Int32.to_int (String.get_int32_be bytes off)) in
      frames (off + 8 + len) ((off + 8 + len) :: acc)
  in
  let boundaries = 6 :: frames 6 [] in
  check_int "one frame per batch" (Journal.length j + 1) (List.length boundaries);
  let whole = Journal.batches j in
  for cut = 0 to String.length bytes do
    let oc = open_out_bin path in
    output_string oc (String.sub bytes 0 cut);
    close_out oc;
    let expected = List.find_index (( = ) cut) boundaries in
    match (Journal.load path, expected) with
    | loaded, Some k ->
        check_int (Printf.sprintf "cut %d: prefix length" cut) k (Journal.length loaded);
        List.iteri
          (fun i (b : int Journal.batch) ->
            let w = List.nth whole i in
            check_bool (Printf.sprintf "cut %d: batch %d survives" cut i) true
              (b.Journal.seq = w.Journal.seq
              && Journal.writes b = Journal.writes w
              && Journal.structural b = Journal.structural w))
          (Journal.batches loaded)
    | _, None -> Alcotest.failf "cut %d inside a frame loaded" cut
    | exception Robust.Error (Robust.Bad_input _) ->
        if expected <> None then Alcotest.failf "cut %d on a frame boundary rejected" cut
    | exception e -> Alcotest.failf "cut %d: wrong exception %s" cut (Printexc.to_string e)
  done

(* ------------------------------ 7. fault inside a permanent flush --- *)

(* Every permanent gate's strategy structure, read out: its permanent,
   then its entries row by row. *)
let perm_values (d : 'a Dyn.t) =
  let read k n perm get =
    perm :: List.concat (List.init k (fun row -> List.init n (fun col -> get ~row ~col)))
  in
  Array.of_list
    (List.concat_map
       (function
         | Dyn.APerm (Dyn.PSeg s, _) ->
             read s.Perm.Segtree.k s.Perm.Segtree.n (Perm.Segtree.perm s) (Perm.Segtree.get s)
         | Dyn.APerm (Dyn.PRing s, _) ->
             read s.Perm.Ring.k s.Perm.Ring.n (Perm.Ring.perm s) (Perm.Ring.get s)
         | Dyn.APerm (Dyn.PFin s, _) ->
             read s.Perm.Finite.k s.Perm.Finite.n (Perm.Finite.perm s) (Perm.Finite.get s)
         | _ -> [])
       (Array.to_list d.Dyn.aux))

(* [mul] raises once, at its [fuse]-th call since the wave reached a
   permanent gate — a flush (or the read after it) cut short — over every
   fuse position 1..8 of a full six-input batch on 40 random circuits. *)
let perm_flush_fault (type a) mode (ops : a Intf.ops) ~(zero : a) ~(one : a)
    ~(mk : int -> a) () =
  let in_perm = ref false and muls = ref 0 and fuse = ref 0 in
  let ops =
    {
      ops with
      Intf.mul =
        (fun a b ->
          if !in_perm then begin
            incr muls;
            if !muls = !fuse then begin
              in_perm := false;
              failwith "fault mid-flush"
            end
          end;
          ops.Intf.mul a b);
    }
  in
  let faults = ref 0 in
  for seed = 0 to 39 do
    for f = 1 to 8 do
      let c = Circuit_gen.random_circuit ~zero ~one ~mk seed 6 in
      let vals = Array.init 6 (fun i -> mk ((i * 3) + seed)) in
      let valuation = function "w", [ i ] -> vals.(i) | _ -> zero in
      let d = Dyn.create ~mode ops c valuation in
      let writes =
        List.filter
          (fun (key, _) -> Dyn.has_input d key)
          (List.init 6 (fun i -> (("w", [ i ]), mk (seed + (5 * i) + 1))))
      in
      let pre = snapshot d in
      fuse := f;
      muls := 0;
      let opcode = d.Dyn.cc.Circuits.Compact.opcode in
      Dyn.set_fault_hook d
        (Some (fun id -> in_perm := opcode.(id) = Circuits.Compact.op_perm));
      let rolled_back =
        match Dyn.set_inputs d writes with () -> false | exception Dyn.Rolled_back _ -> true
      in
      in_perm := false;
      Dyn.set_fault_hook d None;
      if rolled_back then begin
        incr faults;
        let what = Printf.sprintf "seed %d fuse %d" seed f in
        check_bool (what ^ ": every gate value is pre-wave") true
          (same_values ops pre (snapshot d));
        check_bool (what ^ ": permanents read as a fresh build's") true
          (same_values ops
             (perm_values (Dyn.create ~mode ops c valuation))
             (perm_values d));
        Dyn.set_inputs d writes;
        List.iter (function ("w", [ i ]), v -> vals.(i) <- v | _ -> ()) writes;
        check_bool (what ^ ": the retried batch lands") true
          (same_values ops (snapshot (Dyn.create ~mode ops c valuation)) (snapshot d))
      end
    done
  done;
  check_bool "some fault landed inside a permanent gate" true (!faults > 0)

(* ---------------------- 8. bare replay rejects structural records --- *)

let bare_replay_rejects_structural () =
  let c = Circuit_gen.random_circuit ~zero:0 ~one:1 ~mk:(fun i -> i mod 7) 42 6 in
  let d = Dyn.create nat_ops c (fun _ -> 1) in
  let j = Journal.create () in
  Journal.append_structural j ~insert:true ~rel:"E" ~tup:[ 0; 1 ];
  match Dyn.replay d j with
  | exception Robust.Error (Robust.Bad_input _) -> ()
  | () -> Alcotest.fail "a bare Dyn replayed a structural op"

let suite =
  [
    rollback_identity Dyn.General "general/nat" nat_ops ~zero:0 ~one:1
      ~mk:(fun i -> i mod 7);
    rollback_identity Dyn.Ring "ring/int" int_ops ~zero:0 ~one:1
      ~mk:(fun i -> (i mod 9) - 4);
    rollback_identity Dyn.Finite "finite/zmod6" z6_ops ~zero:Zmod.Z6.zero
      ~one:Zmod.Z6.one ~mk:Zmod.Z6.of_int;
    replay_matches_live Dyn.General "general/nat" nat_ops ~zero:0 ~one:1
      ~mk:(fun i -> i mod 7);
    replay_matches_live Dyn.Ring "ring/int" int_ops ~zero:0 ~one:1
      ~mk:(fun i -> (i mod 9) - 4);
    replay_matches_live Dyn.Finite "finite/zmod6" z6_ops ~zero:Zmod.Z6.zero
      ~one:Zmod.Z6.one ~mk:Zmod.Z6.of_int;
    Alcotest.test_case "journal file round trip" `Quick journal_file_round_trip;
    Alcotest.test_case "write-through waits for commit" `Quick
      write_through_waits_for_commit;
    Alcotest.test_case "transient fault retried after backoff" `Quick
      retry_recovers_transient_fault;
    Alcotest.test_case "journal cut at every byte offset" `Quick torn_journal_every_offset;
    Alcotest.test_case "fault inside a permanent flush: general/nat" `Quick
      (perm_flush_fault Dyn.General nat_ops ~zero:0 ~one:1 ~mk:(fun i -> i mod 7));
    Alcotest.test_case "fault inside a permanent flush: ring/int" `Quick
      (perm_flush_fault Dyn.Ring int_ops ~zero:0 ~one:1 ~mk:(fun i -> (i mod 9) - 4));
    Alcotest.test_case "fault inside a permanent flush: finite/zmod6" `Quick
      (perm_flush_fault Dyn.Finite z6_ops ~zero:Zmod.Z6.zero ~one:Zmod.Z6.one
         ~mk:Zmod.Z6.of_int);
    Alcotest.test_case "bare replay rejects structural records" `Quick
      bare_replay_rejects_structural;
  ]
