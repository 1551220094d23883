(* Machine-speed calibration.

   On a shared host the same code runs up to ±25% faster or slower from
   one second to the next, and from one run to the next. A fixed kernel
   of the benchmark's own, independent of the engine, is timed every few
   milliseconds between the workload's operations; an operation's time
   is then scaled by [nominal_ns / kernel time around it], which takes
   the host's drift out and leaves the engine's own cost.

   The kernel probes a hash table of ints through the standard library
   (one call into the runtime's C hash per probe, bucket lists in the
   major heap). It allocates nothing, so the engine's GC settings cannot
   reach it. The choice is empirical: on the reference machine the
   engine's operations switch between a fast and a slow phase (about
   1.5x apart, for seconds at a time) that plain loads and arithmetic do
   not see, while their time over this kernel's stays within about 5%. *)

let entries = 1 lsl 16
let probes = 2048

let table =
  lazy
    (let h = Hashtbl.create entries in
     for i = 0 to entries - 1 do
       Hashtbl.replace h (i * 7919) i
     done;
     h)

(* where the pseudo-random probe sequence has got to *)
let pos = ref 0

let kernel () =
  let h = Lazy.force table in
  let p = ref !pos and acc = ref 0 in
  for _ = 1 to probes do
    p := ((!p * 1103515245) + 12345) land (entries - 1);
    acc := !acc + Hashtbl.find h (!p * 7919)
  done;
  pos := !p;
  ignore (Sys.opaque_identity !acc)

(* The kernel's typical time on the reference machine of
   perfbench/README.md; scaled times read as times on that machine. *)
let nominal_ns = 480_000.

(* Calibration samples: (end time, kernel ns). *)
let at = ref (Array.make 4096 0)
let dur = ref (Array.make 4096 0.)
let n = ref 0

let record t d =
  if !n = Array.length !at then begin
    at := Array.append !at (Array.make !n 0);
    dur := Array.append !dur (Array.make !n 0.)
  end;
  !at.(!n) <- t;
  !dur.(!n) <- d;
  incr n

let sample () =
  ignore (Lazy.force table);
  let t0 = Clock.now_ns () in
  kernel ();
  let t1 = Clock.now_ns () in
  record t1 (float_of_int (t1 - t0))

let interval_ns = 20_000_000
let last = ref 0

(* Time the kernel if [interval_ns] passed since the last sample. Called
   between operations, never inside a timed one. *)
let maybe () =
  let now = Clock.now_ns () in
  if now - !last >= interval_ns then begin
    sample ();
    last := Clock.now_ns ()
  end

let median a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  let m = Array.length a in
  if m = 0 then Float.nan else if m land 1 = 1 then a.(m / 2) else (a.((m / 2) - 1) +. a.(m / 2)) /. 2.

let half_ns = 1_000_000_000
let min_samples = 9

(* Median kernel time of the samples taken within [half_ns] of [t]; the
   nearest [min_samples] when there are fewer. *)
let window_median t =
  let ts = !at and ds = !dur and m = !n in
  (* first index with at >= t - half_ns *)
  let lower x =
    let lo = ref 0 and hi = ref m in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if ts.(mid) < x then lo := mid + 1 else hi := mid
    done;
    !lo
  in
  let i = lower (t - half_ns) and j = lower (t + half_ns + 1) in
  let i, j =
    if j - i >= min_samples then (i, j)
    else
      let c = lower t in
      let i = max 0 (c - (min_samples / 2)) in
      let j = min m (i + min_samples) in
      (max 0 (j - min_samples), j)
  in
  if j <= i then nominal_ns else median (Array.sub ds i (j - i))

(* The factor a time measured at [t] is multiplied by. Factors are
   cached per 100 ms bucket. *)
let bucket_ns = 100_000_000
let cache : (int, float) Hashtbl.t = Hashtbl.create 256
let cached_n = ref (-1)

let factor_at t =
  if !cached_n <> !n then begin
    Hashtbl.reset cache;
    cached_n := !n
  end;
  let b = t / bucket_ns in
  match Hashtbl.find_opt cache b with
  | Some f -> f
  | None ->
      let f = nominal_ns /. window_median ((b * bucket_ns) + (bucket_ns / 2)) in
      Hashtbl.replace cache b f;
      f
