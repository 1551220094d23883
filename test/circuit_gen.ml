(* The random circuit the optimizer, compact-runtime and recovery suites
   share: inputs ("w", [0..n_inputs-1]), the constants 0 and 1, then 14
   random gates — 2- and 3-ary adds and muls, 2x2 permanents, constants
   [mk (0..99)] — over everything built so far, summed into the output.
   With 0/1 mixed into the pool both optimizer sweeps have work to do. The
   same seed always gives the same circuit. *)

module Circuit = Circuits.Circuit

let random_circuit (type a) ~(zero : a) ~(one : a) ~(mk : int -> a) seed n_inputs :
    a Circuit.t =
  let rng = Graphs.Rand.create seed in
  let b = Circuit.builder () in
  let inputs = List.init n_inputs (fun i -> Circuit.input b ("w", [ i ])) in
  let pool = ref (Array.of_list (Circuit.const b zero :: Circuit.const b one :: inputs)) in
  let pick () = !pool.(Graphs.Rand.int rng (Array.length !pool)) in
  for _ = 1 to 14 do
    let g =
      match Graphs.Rand.int rng 6 with
      | 0 -> Circuit.add b [ pick (); pick (); pick () ]
      | 1 -> Circuit.add b [ pick (); pick () ]
      | 2 -> Circuit.mul b [ pick (); pick () ]
      | 3 -> Circuit.mul b [ pick (); pick (); pick () ]
      | 4 -> Circuit.perm b [| [| pick (); pick () |]; [| pick (); pick () |] |]
      | _ -> Circuit.const b (mk (Graphs.Rand.int rng 100))
    in
    pool := Array.append !pool [| g |]
  done;
  let out = Circuit.add b (Array.to_list !pool) in
  Circuit.finish b ~output:out
