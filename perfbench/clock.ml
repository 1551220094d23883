(* The benchmark's own clock: CLOCK_MONOTONIC in integer nanoseconds,
   read through a non-allocating C stub. Its resolution and per-read cost
   are measured at start-up and recorded with every run, so a latency
   near either figure is known for what it is. *)

external now_ns : unit -> int = "perfbench_clock_ns" [@@noalloc]
external getres_ns : unit -> int = "perfbench_clock_getres_ns" [@@noalloc]

let since_ns t0 = float_of_int (now_ns () - t0)

(* Smallest positive step seen between back-to-back reads. *)
let measured_resolution_ns () =
  let best = ref max_int in
  for _ = 1 to 20_000 do
    let a = now_ns () in
    let b = ref (now_ns ()) in
    while !b = a do
      b := now_ns ()
    done;
    best := min !best (!b - a)
  done;
  float_of_int !best

(* Mean cost of one read, over a long run of reads (median of 5). *)
let read_cost_ns () =
  let k = 200_000 in
  let runs =
    Array.init 5 (fun _ ->
        let t0 = now_ns () in
        for _ = 1 to k do
          ignore (now_ns ())
        done;
        since_ns t0 /. float_of_int k)
  in
  Array.sort Float.compare runs;
  runs.(2)

type info = { resolution_ns : float; getres_ns : float; read_cost_ns : float }

let info = lazy
  {
    resolution_ns = measured_resolution_ns ();
    getres_ns = float_of_int (getres_ns ());
    read_cost_ns = read_cost_ns ();
  }
