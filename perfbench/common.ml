(* Shared plumbing of the three workloads: metric records, the
   attempted/failed tally, timed set-up, the closed-loop runner, and the
   outside-in probes of the traced run. *)

type metric = { name : string; unit_ : string; value : float }

let m name unit_ value = { name; unit_; value }

(* What one workload run hands back to [Bench]. [layers] is filled only by
   a traced run; [detail] is the human/JSON report (facts, sample counts,
   the workload-specific table). *)
type outcome = {
  e2e : metric list;
  layers : metric list;
  detail : (string * Obs.Json.t) list;
  attempted : int;
  failed : int;
  notes : string list;  (** what failed, first few *)
}

(* --- attempted / failed --- *)

type tally = { mutable attempted : int; mutable failed : int; mutable notes : string list }

let tally () = { attempted = 0; failed = 0; notes = [] }

let note t msg = if List.length t.notes < 20 then t.notes <- msg :: t.notes

(* Run [k] operations as one timed group; a raised exception fails all of
   them and yields no sample. *)
let timed_group t k f =
  Calib.maybe ();
  t.attempted <- t.attempted + k;
  let t0 = Clock.now_ns () in
  match f () with
  | () -> Some (Clock.since_ns t0)
  | exception e ->
      t.failed <- t.failed + k;
      note t (Printexc.to_string e);
      None

let check t what ok =
  t.attempted <- t.attempted + 1;
  if not ok then begin
    t.failed <- t.failed + 1;
    note t ("check failed: " ^ what)
  end

(* --- set-up --- *)

let live_mb () =
  Gc.full_major ();
  float_of_int (Gc.stat ()).Gc.live_words *. float_of_int (Sys.word_size / 8) /. 1e6

type setup = { setup_s : float; heap_mb : float; times : float list }

(* Prepare [reps] times from scratch; keep the last structure and, with
   [~spare:true], the one before it too (a second fresh structure for
   callers that need one). Set-up time and retained heap are the medians
   over the repetitions. Set-up time is the clock's: the calibration
   kernel (Calib) is run between operations of the loop, in the cache
   state they leave, and a kernel run next to a prepare would be timed
   in another. *)
let measure_setup ?(spare = false) ~reps prepare =
  let times = ref [] and heaps = ref [] and kept = ref None and prev = ref None in
  for _ = 1 to reps do
    prev := if spare then !kept else None;
    kept := None;
    let h0 = live_mb () in
    let t0 = Clock.now_ns () in
    let x = prepare () in
    let dt = Clock.since_ns t0 /. 1e9 in
    let h1 = live_mb () in
    times := dt :: !times;
    heaps := (h1 -. h0) :: !heaps;
    kept := Some x
  done;
  ( Option.get !kept,
    !prev,
    { setup_s = Stats.median_of !times; heap_mb = Stats.median_of !heaps; times = !times } )

(* --- the closed loop --- *)

(* One client, one request at a time: run [cycle] until [seconds] have
   passed (or [max_cycles] cycles ran); returns the cycles completed. The
   window is cut into [slices] equal time slices, [on_slice] marking each
   end, so that metrics can be the median over slices. *)
let slices = 6

let run_for ?(max_cycles = max_int) ?(on_slice = ignore) ~seconds cycle =
  let t0 = Clock.now_ns () in
  let limit = seconds *. 1e9 in
  let slice_len = limit /. float_of_int slices in
  let next = ref slice_len in
  let k = ref 0 in
  while !k < max_cycles && Clock.since_ns t0 < limit do
    cycle ();
    Calib.maybe ();
    incr k;
    let elapsed = Clock.since_ns t0 in
    if elapsed >= !next then begin
      on_slice ();
      while !next <= elapsed do
        next := !next +. slice_len
      done
    end
  done;
  !k

(* --- traced-run helpers --- *)

let counter scope name =
  match Obs.find ~scope name with Some (Obs.C c) -> Obs.Counter.get c | _ -> 0

let perm_sets () =
  counter "perm" "segtree_sets" + counter "perm" "ring_sets" + counter "perm" "finite_sets"

let minor_words () = Gc.minor_words ()
let major_collections () = (Gc.quick_stat ()).Gc.major_collections

(* A benchmark-side span around a call into a layer, recorded only while
   a trace is being recorded. *)
let span name f = if Obs.Trace.is_recording () then Obs.Trace.span ~scope:"bench" name f else f ()

(* Per-op time of [k] calls of [f], timed as one group. *)
let per_op k f =
  let t0 = Clock.now_ns () in
  for i = 0 to k - 1 do
    f i
  done;
  Clock.since_ns t0 /. float_of_int k

(* Two kernels over the same fixed-size groups, alternating which runs
   first: the per-op p50 of [a], and the p50 of the paired per-op
   difference [b] − [a]. *)
let paired_p50 ~groups ~group a b =
  let sa = Stats.create () and d = Stats.create () in
  for g = 0 to groups - 1 do
    let ta, tb =
      if g land 1 = 0 then
        let ta = per_op group a in
        (ta, per_op group b)
      else
        let tb = per_op group b in
        (per_op group a, tb)
    in
    Stats.add sa ta;
    Stats.add d (tb -. ta)
  done;
  (Stats.quantile sa 0.5, Stats.quantile d 0.5)

(* Record an Obs trace of [f] on the benchmark clock. *)
let traced f =
  Obs.set_clock (Some (fun () -> float_of_int (Clock.now_ns ())));
  Obs.Trace.start_recording ();
  let finish () =
    let records = Obs.Trace.stop_recording () in
    Obs.set_clock None;
    records
  in
  match f () with
  | r -> (r, finish ())
  | exception e ->
      ignore (finish ());
      raise e

(* Self time per span name (duration minus the time its child spans
   cover), largest first: the per-layer split of the traced window. *)
let self_times records =
  let acc = Hashtbl.create 32 in
  let rec walk (t : Obs.Trace.tree) =
    let s = t.Obs.Trace.sp in
    let kids =
      List.fold_left (fun a c -> a +. Obs.Trace.duration_ns c.Obs.Trace.sp) 0. t.Obs.Trace.children
    in
    let key = s.Obs.Trace.scope ^ "/" ^ s.Obs.Trace.name in
    let self, total, n = Option.value ~default:(0., 0., 0) (Hashtbl.find_opt acc key) in
    Hashtbl.replace acc key
      (self +. Obs.Trace.duration_ns s -. kids, total +. Obs.Trace.duration_ns s, n + 1);
    List.iter walk t.Obs.Trace.children
  in
  List.iter walk (Obs.Trace.forest_of records);
  Hashtbl.fold (fun k (self, total, n) l -> (k, self, total, n) :: l) acc []
  |> List.sort (fun (_, a, _, _) (_, b, _, _) -> Float.compare b a)

let self_times_json records =
  Obs.Json.A
    (List.map
       (fun (k, self, total, n) ->
         Obs.Json.O
           [
             ("span", Obs.Json.S k);
             ("count", Obs.Json.I n);
             ("self_ms", Obs.Json.F (self /. 1e6));
             ("total_ms", Obs.Json.F (total /. 1e6));
           ])
       (self_times records))

(* Telemetry cost on a workload's own update kernel: the same kernel timed
   with Obs on and off in alternating pairs; the median paired difference
   over the median "off" time, in percent. *)
let obs_overhead_pct ?(reps = 21) kernel =
  let timed () =
    let t0 = Clock.now_ns () in
    kernel ();
    Clock.since_ns t0
  in
  let leg on =
    Obs.set_enabled on;
    let dt = timed () in
    Obs.set_enabled true;
    dt
  in
  ignore (leg true);
  ignore (leg false);
  let diffs = ref [] and offs = ref [] in
  for i = 1 to reps do
    let on, off =
      if i land 1 = 0 then
        let a = leg true in
        (a, leg false)
      else
        let b = leg false in
        (leg true, b)
    in
    diffs := (on -. off) :: !diffs;
    offs := off :: !offs
  done;
  100. *. Stats.median_of !diffs /. Stats.median_of !offs

(* log–log slope of a cost between two input sizes. *)
let slope ~n_small ~t_small ~n_big ~t_big =
  Float.log (t_big /. t_small) /. Float.log (float_of_int n_big /. float_of_int n_small)

(* The prepare split into its stages. Each repetition times one whole
   prepare ([full]) and then the stages run alone in order ([stages]
   returns their seconds), both from a collected heap; the first
   repetition only warms up. Returns the median whole prepare and the
   per-stage medians. *)
let stage_split ~reps ~full ~stages =
  let fulls = ref [] and parts = ref [] in
  for r = 0 to reps do
    Gc.full_major ();
    let t0 = Clock.now_ns () in
    ignore (Sys.opaque_identity (full ()));
    let f = Clock.since_ns t0 /. 1e9 in
    Gc.full_major ();
    let ps = stages () in
    if r > 0 then begin
      fulls := f :: !fulls;
      parts := ps :: !parts
    end
  done;
  let per_stage = List.mapi (fun i _ -> Stats.median_of (List.map (fun l -> List.nth l i) !parts)) (List.hd !parts) in
  (Stats.median_of !fulls, per_stage)

(* Seconds [f] takes, and its result. *)
let timed f =
  let t0 = Clock.now_ns () in
  let r = f () in
  (Clock.since_ns t0 /. 1e9, r)

let median_time ~reps f =
  Stats.median_of
    (List.init reps (fun _ ->
         let t0 = Clock.now_ns () in
         f ();
         Clock.since_ns t0 /. 1e9))

let pct part whole = 100. *. part /. whole

let metrics_json ms =
  Obs.Json.O
    (List.map
       (fun x -> (x.name, Obs.Json.O [ ("value", Obs.Json.F x.value); ("unit", Obs.Json.S x.unit_) ]))
       ms)

let rec mkdir_p d =
  if d <> "" && d <> "." && d <> "/" && not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Sys.mkdir d 0o755 with Sys_error _ when Sys.file_exists d -> ()
  end

let write_file path s =
  mkdir_p (Filename.dirname path);
  let oc = open_out_bin path in
  output_string oc s;
  output_char oc '\n';
  close_out oc
