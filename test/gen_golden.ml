(* gen_golden — writes the committed .spqc/.spqj fixtures under test/golden/.

   The fixtures pin the SPQC1 circuit and SPQJ1 journal wire formats:
   test_compact.ml's "golden format stability" case loads them with the
   *current* reader and checks their evaluation against the values this
   program printed when the files were first written. Do not regenerate
   them casually — if a format version is ever bumped, add new fixtures
   for the new version and keep the old ones loading.

   journal_weights.spqj was written before SPQJ1 grew the structural-op
   record type (negative-length frames), so it pins exactly the
   weight-batch encoding every pre-extension journal used.

   Usage: dune exec test/gen_golden.exe -- [DIR]   (default: test/golden) *)

open Semiring
module Circuit = Circuits.Circuit
module Compact = Circuits.Compact

let () =
  let dir = if Array.length Sys.argv > 1 then Sys.argv.(1) else "test/golden" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;

  (* nat_small: every gate kind once over the nat semiring *)
  let b = Circuit.builder () in
  let w = Array.init 4 (fun i -> Circuit.input b ("w", [ i ])) in
  let c2 = Circuit.const b 2 in
  let c3 = Circuit.const b 3 in
  let a = Circuit.add b [ w.(0); w.(1); c2 ] in
  let m = Circuit.mul b [ a; w.(2) ] in
  let p = Circuit.perm b [| [| a; w.(3) |]; [| w.(2); c3 |] |] in
  let out = Circuit.add b [ m; p; w.(0) ] in
  let nat = Compact.of_circuit (Circuit.finish b ~output:out) in
  let nat_path = Filename.concat dir "nat_small.spqc" in
  Compact.save ~tag:"nat" nat nat_path;
  let nat_ops = Intf.ops_of_module (module Instances.Nat) in
  Printf.printf "%s: eval w[i]=i+1 -> %d\n" nat_path
    (Compact.eval nat_ops nat (function "w", [ i ] -> i + 1 | _ -> 0));

  (* int_perm: negative constants through the ring, permanent on top *)
  let b = Circuit.builder () in
  let w = Array.init 3 (fun i -> Circuit.input b ("w", [ i ])) in
  let cm2 = Circuit.const b (-2) in
  let c5 = Circuit.const b 5 in
  let s = Circuit.add b [ w.(0); c5 ] in
  let m = Circuit.mul b [ s; w.(1); cm2 ] in
  let p = Circuit.perm b [| [| m; w.(2) |]; [| s; cm2 |] |] in
  let out = Circuit.add b [ p; m; w.(0) ] in
  let int_c = Compact.of_circuit (Circuit.finish b ~output:out) in
  let int_path = Filename.concat dir "int_perm.spqc" in
  Compact.save ~tag:"int" int_c int_path;
  let int_ops = Intf.ops_of_ring (module Instances.Int_ring) in
  Printf.printf "%s: eval w[i]=2i-3 -> %d\n" int_path
    (Compact.eval int_ops int_c (function "w", [ i ] -> (2 * i) - 3 | _ -> 0));

  (* journal_weights: three weight batches (one empty — replay must keep
     commit positions), int payloads, every key shape the engine emits *)
  let j : int Circuits.Journal.t = Circuits.Journal.create () in
  Circuits.Journal.append j [ (("w", [ 0 ]), 5); (("w", [ 1 ]), 7) ];
  Circuits.Journal.append j [];
  Circuits.Journal.append j [ (("__qv0", [ 2 ]), 1); (("w", [ 0 ]), 0) ];
  let j_path = Filename.concat dir "journal_weights.spqj" in
  Circuits.Journal.save j j_path;
  Printf.printf "%s: %d batches, %d payload bytes\n" j_path (Circuits.Journal.length j)
    (Circuits.Journal.bytes j)
