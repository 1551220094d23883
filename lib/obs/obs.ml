(** Zero-dependency metrics for the engine's complexity claims.

    Every theorem the repo reproduces is stated in terms of measurable
    circuit parameters — gate count, depth, fan-out, permanent rows
    (Theorem 6), per-update reach-out (Theorem 8, Corollaries 13/17/20),
    per-answer delay (Theorems 22/24) — yet a claim that is not measured
    cannot be regressed against. This module is the measurement layer:

    - {!Counter} — monotone event counts (updates applied, budgets fired);
    - {!Gauge} — last-written values (gates, depth of the latest circuit);
    - {!Histogram} — log₂-bucketed magnitude distributions, used for
      latencies in nanoseconds and for per-answer work counts; every
      histogram also maintains a sliding window (last {!Window.slots}
      epochs) so a regression in the recent past is visible next to the
      whole-run aggregate;
    - {!Timer} — sugar for timing a thunk into a histogram;
    - {!Runtime} — a [Gc.quick_stat] delta sampler (allocation rates,
      collection counts, heap size) under the "runtime" scope;
    - a global registry of named scopes ("compile", "dyn", "perm", …) with
      {!snapshot} (machine-readable JSON, no external JSON library),
      {!snapshot_human}, and {!Openmetrics.render} (Prometheus-scrapeable
      text exposition, plus an atomic periodic file writer) dumps.

    All write paths are gated on a single mutable flag ({!set_enabled}):
    when disabled, an instrumented operation costs one load and branch, so
    the engine's hot paths stay within the ≤5% overhead budget.

    Metrics are process-global and single-domain, matching the engine's
    single-writer rule: every cell is a plain mutable field, so each
    event is one plain store and every counter is exact at every
    instant. Writing to [Obs] from a second domain is unsupported. *)

let enabled_flag = ref true
let set_enabled b = enabled_flag := b
let is_enabled () = !enabled_flag

(** Monotonic nanoseconds ([clock_gettime(CLOCK_MONOTONIC)] through a
    non-allocating C stub): it never steps backwards and resolves well
    below the microsecond. The clock every timer, span, budget and CLI
    timing reads is indirect so tests can inject their own ({!set_clock}). *)
external default_clock : unit -> (float[@unboxed])
  = "obs_monotonic_ns_byte" "obs_monotonic_ns"
[@@noalloc]

let clock = ref default_clock
let now_ns () = !clock ()

(** Override the clock (tests only); [None] restores the monotonic clock. *)
let set_clock c = clock := Option.value ~default:default_clock c

(** Nanoseconds elapsed since [t0], clamped to 0: an injected test clock
    may step backwards, and such a step mid-measurement must not record
    a negative (or, once bucketed, garbage) duration. *)
let elapsed_ns t0 =
  let d = now_ns () -. t0 in
  if Float.is_nan d || d < 0. then 0. else d

(** Systematic 1-in-64 sampling of a hot operation's telemetry, one tick
    counter per sampled call site: the wall-clock reads, histogram
    observes and flight-ring span cost more than a sub-microsecond
    operation itself, so such a site times and traces every 64th call
    and keeps exact counters for the totals. *)
type sampler = { mutable tick : int }

let sampler () = { tick = 0 }

(** Whether this call is in the sample: every 64th call while telemetry
    is enabled. *)
let sampled s =
  !enabled_flag
  &&
  (s.tick <- s.tick + 1;
   s.tick land 63 = 0)

(* --- crash-safe file writes --- *)

(** Replace [path] with what [write] puts on the channel, crash-safely:
    [write] fills a [path.tmp] sibling, which is renamed over [path] only
    once it is complete and closed. A crash or an exception mid-write
    leaves the previous [path] byte-identical; on an exception the temp
    file is removed and the exception re-raised. The one file-writing
    path of the journal, the persisted circuit and the OpenMetrics
    writer. *)
let write_file_atomic path (write : out_channel -> unit) : unit =
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  match
    write oc;
    close_out oc;
    Sys.rename tmp path
  with
  | () -> ()
  | exception e ->
      close_out_noerr oc;
      (try Sys.remove tmp with Sys_error _ -> ());
      raise e

(* --- hand-rolled JSON (the environment has no Yojson) --- *)

module Json = struct
  type t =
    | Null
    | B of bool
    | I of int
    | F of float
    | S of string
    | A of t list
    | O of (string * t) list

  let escape buf s =
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\t' -> Buffer.add_string buf "\\t"
        | '\r' -> Buffer.add_string buf "\\r"
        | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s

  (** The token a float serializes to. NaN (no meaningful magnitude) maps
      to [null]; infinities clamp to the largest finite float, so a
      diverging gauge still shows up as a number rather than poisoning the
      document with a bare [inf] token. Every emitted token re-parses. *)
  let float_token f =
    if Float.is_nan f then "null"
    else if f = Float.infinity then Printf.sprintf "%.17g" Float.max_float
    else if f = Float.neg_infinity then Printf.sprintf "%.17g" (-.Float.max_float)
    else Printf.sprintf "%.12g" f

  let rec write buf = function
    | Null -> Buffer.add_string buf "null"
    | B b -> Buffer.add_string buf (if b then "true" else "false")
    | I i -> Buffer.add_string buf (string_of_int i)
    | F f -> Buffer.add_string buf (float_token f)
    | S s ->
        Buffer.add_char buf '"';
        escape buf s;
        Buffer.add_char buf '"'
    | A xs ->
        Buffer.add_char buf '[';
        List.iteri
          (fun i x ->
            if i > 0 then Buffer.add_char buf ',';
            write buf x)
          xs;
        Buffer.add_char buf ']'
    | O fields ->
        Buffer.add_char buf '{';
        List.iteri
          (fun i (k, x) ->
            if i > 0 then Buffer.add_char buf ',';
            Buffer.add_char buf '"';
            escape buf k;
            Buffer.add_string buf "\":";
            write buf x)
          fields;
        Buffer.add_char buf '}'

  let to_string j =
    let buf = Buffer.create 1024 in
    write buf j;
    Buffer.contents buf
end

(* --- the sliding-window epoch clock --- *)

(** Global epoch clock for the sliding-window side of every histogram.

    Time is cut into fixed-length epochs; each histogram keeps a ring of
    {!slots} per-epoch sub-histograms, and "the window" is the union of
    the sub-histograms whose epoch tag lies in the last {!slots} epochs.
    The epoch only advances when {!tick} is called — snapshot paths
    ({!snapshot_json}, {!Openmetrics.render}, the periodic writer) drive
    it, so there is no background thread and a test with an injected
    clock ({!set_clock}) steps epochs deterministically. *)
module Window = struct
  (** Ring size: the window spans the last 8 epochs (with the default
      1s epoch length, an 8-second sliding window). *)
  let slots = 8

  let cur_epoch = ref 0
  let epoch_len = ref 1e9 (* ns *)
  let epoch_start = ref Float.nan (* anchored lazily by the first tick *)

  (** Epoch length in milliseconds (default 1000). *)
  let set_epoch_ms ms = epoch_len := float_of_int (max 1 ms) *. 1e6

  let epoch_ms () = int_of_float (!epoch_len /. 1e6)
  let current_epoch () = !cur_epoch

  (** Advance the epoch to match the clock. Multiple elapsed epochs are
      caught up in one step; a backwards clock step re-anchors the epoch
      start without rewinding the epoch counter (epochs are monotone).
      Meant to be called from snapshot paths, not from hot loops. *)
  let tick () =
    let now = now_ns () in
    if Float.is_nan !epoch_start then epoch_start := now
    else begin
      let d = now -. !epoch_start in
      if d < 0. then epoch_start := now
      else if d >= !epoch_len then begin
        let k = int_of_float (d /. !epoch_len) in
        cur_epoch := !cur_epoch + k;
        epoch_start := !epoch_start +. (float_of_int k *. !epoch_len)
      end
    end

  (** Rewind the epoch clock (tests only). Histograms observed before the
      reset keep stale slot tags; reset them too ({!Histogram.reset}) or
      use fresh histograms. *)
  let reset () =
    cur_epoch := 0;
    epoch_start := Float.nan
end

(* --- metric kinds --- *)

module Counter = struct
  type t = { mutable v : int }

  let make () = { v = 0 }
  let incr t = if !enabled_flag then t.v <- t.v + 1
  let add t n = if !enabled_flag then t.v <- t.v + n
  let get t = t.v
  let reset t = t.v <- 0
end

module Gauge = struct
  type t = { mutable v : float }

  let make () = { v = 0. }
  let set t x = if !enabled_flag then t.v <- x
  let set_int t i = set t (float_of_int i)
  let get t = t.v
  let reset t = t.v <- 0.
end

(** Log₂-scale histogram over non-negative magnitudes (latencies in
    nanoseconds, per-answer work counts, …). Bucket 0 holds values in
    [0, 1); bucket i ≥ 1 holds [2^(i−1), 2^i). 64 buckets cover every
    magnitude a float can meaningfully carry here.

    Next to the cumulative series, each histogram keeps a ring of
    {!Window.slots} per-epoch sub-histograms; {!window_stats} merges the
    live slots into sliding-window count/sum/p50/p99. *)
module Histogram = struct
  let nbuckets = 64

  type t = {
    buckets : int array;
    mutable count : int;
    stats : float array;
        (* sum, min (+inf when empty), max (-inf when empty): a float
           array stores them unboxed, so an observe allocates none *)
    (* the sliding-window ring: slot e mod slots carries epoch e's
       sub-histogram, tagged with e (min_int = never used) *)
    w_epoch : int array;
    w_buckets : int array; (* slots × nbuckets, flattened *)
    w_sums : float array;
    w_maxs : float array;
  }

  let make () =
    {
      buckets = Array.make nbuckets 0;
      count = 0;
      stats = [| 0.; Float.infinity; Float.neg_infinity |];
      w_epoch = Array.make Window.slots min_int;
      w_buckets = Array.make (Window.slots * nbuckets) 0;
      w_sums = Array.make Window.slots 0.;
      w_maxs = Array.make Window.slots Float.neg_infinity;
    }

  (** Bucket index of a value: 0 for v < 1, else the exponent e with
      v ∈ [2^(e−1), 2^e), clamped to the last bucket. Read from the
      biased exponent bits, since [Float.frexp] allocates its pair. *)
  let[@inline] bucket_of v =
    if Float.is_nan v || v < 1.0 then 0
    else
      let e = Int64.to_int (Int64.shift_right_logical (Int64.bits_of_float v) 52) - 1022 in
      if e >= nbuckets then nbuckets - 1 else e

  (** Inclusive lower / exclusive upper bound of bucket [i]. *)
  let bucket_lower i = if i <= 0 then 0. else Float.ldexp 1. (i - 1)

  let bucket_upper i = Float.ldexp 1. i

  (* the body of {!observe}, inlined (with [bucket_of]) into it and into
     {!observe_int}: a float passed to a call that is not inlined is
     boxed, so an int observed is converted in place and never boxed *)
  let[@inline] record t v =
    if !enabled_flag then begin
      let v = if Float.is_nan v || v < 0. then 0. else v in
      let b = bucket_of v in
      t.buckets.(b) <- t.buckets.(b) + 1;
      t.count <- t.count + 1;
      let st = t.stats in
      st.(0) <- st.(0) +. v;
      if v < st.(1) then st.(1) <- v;
      if v > st.(2) then st.(2) <- v;
      let e = Window.current_epoch () in
      let slot = e mod Window.slots in
      if t.w_epoch.(slot) <> e then begin
        (* the slot last held an older epoch: recycle it for [e] *)
        Array.fill t.w_buckets (slot * nbuckets) nbuckets 0;
        t.w_sums.(slot) <- 0.;
        t.w_maxs.(slot) <- Float.neg_infinity;
        t.w_epoch.(slot) <- e
      end;
      let wb = (slot * nbuckets) + b in
      t.w_buckets.(wb) <- t.w_buckets.(wb) + 1;
      t.w_sums.(slot) <- t.w_sums.(slot) +. v;
      if v > t.w_maxs.(slot) then t.w_maxs.(slot) <- v
    end

  let observe t v = record t v

  (** [observe_int t n] is [observe t (float_of_int n)], allocating nothing. *)
  let observe_int t n = record t (float_of_int n)

  let count t = t.count
  let sum t = t.stats.(0)
  let mean t = if t.count = 0 then 0. else sum t /. float_of_int t.count
  let min_value t = if t.count = 0 then 0. else t.stats.(1)
  let max_value t = if t.count = 0 then 0. else t.stats.(2)
  let bucket_count t i = t.buckets.(i)

  (** Quantile over any bucket-count view: the upper bound of the smallest
      bucket whose cumulative count reaches q·count (inclusive — a rank
      exactly equal to a bucket's cumulative count selects that bucket,
      not the one above), clamped to the observed maximum. 0 when empty. *)
  let quantile_over ~(bucket : int -> int) ~count ~max_v q =
    if count = 0 then 0.
    else begin
      let rank = Float.to_int (Float.ceil (q *. float_of_int count)) in
      let rank = if rank < 1 then 1 else if rank > count then count else rank in
      (* smallest i with cumulative count >= rank; the total reaches
         [count >= rank], so the scan stays in range *)
      let cum = ref (bucket 0) and i = ref 0 in
      while !cum < rank && !i < nbuckets - 1 do
        incr i;
        cum := !cum + bucket !i
      done;
      Float.min (bucket_upper !i) max_v
    end

  let quantile t q =
    quantile_over ~bucket:(Array.get t.buckets) ~count:t.count ~max_v:(max_value t) q

  let p50 t = quantile t 0.5
  let p99 t = quantile t 0.99

  (** Merged view of the sliding window (the last {!Window.slots} epochs,
      as of the current epoch — call {!Window.tick} first on snapshot
      paths). Count and quantiles come from one merged bucket array, so
      they are internally consistent. *)
  type wstats = { wcount : int; wsum : float; wp50 : float; wp99 : float; wmax : float }

  let window_stats t =
    let e = Window.current_epoch () in
    let counts = Array.make nbuckets 0 in
    let s = ref 0. and mx = ref Float.neg_infinity in
    for slot = 0 to Window.slots - 1 do
      let tag = t.w_epoch.(slot) in
      if tag <= e && tag > e - Window.slots then begin
        let base = slot * nbuckets in
        for i = 0 to nbuckets - 1 do
          counts.(i) <- counts.(i) + t.w_buckets.(base + i)
        done;
        s := !s +. t.w_sums.(slot);
        if t.w_maxs.(slot) > !mx then mx := t.w_maxs.(slot)
      end
    done;
    let n = Array.fold_left ( + ) 0 counts in
    let mx = if n = 0 then 0. else !mx in
    {
      wcount = n;
      wsum = (if n = 0 then 0. else !s);
      wmax = mx;
      wp50 = quantile_over ~bucket:(Array.get counts) ~count:n ~max_v:mx 0.5;
      wp99 = quantile_over ~bucket:(Array.get counts) ~count:n ~max_v:mx 0.99;
    }

  let reset t =
    Array.fill t.buckets 0 nbuckets 0;
    t.count <- 0;
    t.stats.(0) <- 0.;
    t.stats.(1) <- Float.infinity;
    t.stats.(2) <- Float.neg_infinity;
    Array.fill t.w_epoch 0 Window.slots min_int;
    Array.fill t.w_buckets 0 (Array.length t.w_buckets) 0;
    Array.fill t.w_sums 0 Window.slots 0.;
    Array.fill t.w_maxs 0 Window.slots Float.neg_infinity
end

(** Timers are histograms of nanoseconds with a measuring combinator. *)
module Timer = struct
  type t = Histogram.t

  (** Run [f], recording its wall-clock duration (also on exceptions, so a
      failing phase still shows up in the dump). Durations are clamped at 0
      ({!elapsed_ns}): a backwards step of an injected clock records an empty
      duration, not a garbage magnitude. *)
  let time (t : t) f =
    if not !enabled_flag then f ()
    else begin
      let t0 = now_ns () in
      Fun.protect ~finally:(fun () -> Histogram.observe t (elapsed_ns t0)) f
    end
end

(* --- the global registry: (scope, name) -> metric --- *)

type metric = C of Counter.t | G of Gauge.t | H of Histogram.t

let registry : (string * string, metric) Hashtbl.t = Hashtbl.create 64

let full_name scope name = scope ^ "/" ^ name

let mismatch scope name =
  invalid_arg (Printf.sprintf "Obs: metric %s already registered with another type" (full_name scope name))

(** Find-or-create; a (scope, name) pair permanently denotes one metric of
    one kind, so modules can bind metrics at load time and tests can look
    the same metrics up by name. *)
let counter ~scope name =
  match Hashtbl.find_opt registry (scope, name) with
  | Some (C c) -> c
  | Some _ -> mismatch scope name
  | None ->
      let c = Counter.make () in
      Hashtbl.replace registry (scope, name) (C c);
      c

let gauge ~scope name =
  match Hashtbl.find_opt registry (scope, name) with
  | Some (G g) -> g
  | Some _ -> mismatch scope name
  | None ->
      let g = Gauge.make () in
      Hashtbl.replace registry (scope, name) (G g);
      g

let histogram ~scope name =
  match Hashtbl.find_opt registry (scope, name) with
  | Some (H h) -> h
  | Some _ -> mismatch scope name
  | None ->
      let h = Histogram.make () in
      Hashtbl.replace registry (scope, name) (H h);
      h

let timer ~scope name : Timer.t = histogram ~scope name
let find ~scope name = Hashtbl.find_opt registry (scope, name)

let scopes () =
  Hashtbl.fold (fun (s, _) _ acc -> if List.mem s acc then acc else s :: acc) registry []
  |> List.sort compare

let reset_metric = function
  | C c -> Counter.reset c
  | G g -> Gauge.reset g
  | H h -> Histogram.reset h

(** Zero every metric in [scope] (they stay registered). *)
let reset_scope scope = Hashtbl.iter (fun (s, _) m -> if s = scope then reset_metric m) registry

let reset_all () = Hashtbl.iter (fun _ m -> reset_metric m) registry

(* A (key, metric) listing sorted by key. Every dump (JSON, human,
   OpenMetrics) starts here, which is what makes two runs of the same
   seed diff cleanly. *)
let sorted_entries () =
  Hashtbl.fold (fun k m acc -> (k, m) :: acc) registry []
  |> List.sort (fun ((sa, na), _) ((sb, nb), _) ->
         match compare (sa : string) sb with 0 -> compare (na : string) nb | c -> c)

(* --- snapshots --- *)

let metric_json = function
  | C c -> Json.O [ ("type", Json.S "counter"); ("value", Json.I (Counter.get c)) ]
  | G g -> Json.O [ ("type", Json.S "gauge"); ("value", Json.F (Gauge.get g)) ]
  | H h ->
      let buckets =
        List.filter_map
          (fun i ->
            let n = Histogram.bucket_count h i in
            if n = 0 then None
            else Some (Json.A [ Json.F (Histogram.bucket_upper i); Json.I n ]))
          (List.init Histogram.nbuckets Fun.id)
      in
      let w = Histogram.window_stats h in
      Json.O
        [
          ("type", Json.S "histogram");
          ("count", Json.I (Histogram.count h));
          ("sum", Json.F (Histogram.sum h));
          ("mean", Json.F (Histogram.mean h));
          ("min", Json.F (Histogram.min_value h));
          ("max", Json.F (Histogram.max_value h));
          ("p50", Json.F (Histogram.p50 h));
          ("p99", Json.F (Histogram.p99 h));
          ( "window",
            Json.O
              [
                ("count", Json.I w.Histogram.wcount);
                ("sum", Json.F w.Histogram.wsum);
                ("p50", Json.F w.Histogram.wp50);
                ("p99", Json.F w.Histogram.wp99);
                ("max", Json.F w.Histogram.wmax);
              ] );
          ("buckets", Json.A buckets);
        ]

(** The whole registry as one JSON object: scope → name → metric, with
    scopes and names sorted for deterministic output. Taking a snapshot
    advances the window epoch ({!Window.tick}) — the snapshot path is the
    epoch driver; there is no background thread. *)
let snapshot_json () =
  Window.tick ();
  let entries = sorted_entries () in
  let all_scopes = List.sort_uniq compare (List.map (fun ((s, _), _) -> s) entries) in
  let scope_objs =
    List.map
      (fun s ->
        let in_scope = List.filter (fun ((s', _), _) -> s' = s) entries in
        (s, Json.O (List.map (fun ((_, n), m) -> (n, metric_json m)) in_scope)))
      all_scopes
  in
  Json.O scope_objs

let snapshot () = Json.to_string (snapshot_json ())

(* --- runtime (GC / heap) telemetry --- *)

(** Zero-dependency runtime sampler: each {!sample} folds the delta since
    the previous sample of [Gc.quick_stat] into counters (allocation and
    collection totals under the "runtime" scope) and gauges (current and
    peak heap size). The first sample after {!reset} accounts the
    process-lifetime totals. Sampling is driven by the same paths that
    snapshot metrics (the periodic writer, `stats --cost`);
    there is no background thread. *)
module Runtime = struct
  let last : Gc.stat option ref = ref None
  let reset () = last := None

  let sample () =
    if !enabled_flag then begin
      let s = Gc.quick_stat () in
      let dfloat f = match !last with None -> f s | Some p -> f s -. f p in
      let dint f = match !last with None -> f s | Some p -> f s - f p in
      let cadd name v = Counter.add (counter ~scope:"runtime" name) (max 0 v) in
      cadd "minor_words" (int_of_float (dfloat (fun (g : Gc.stat) -> g.minor_words)));
      cadd "promoted_words" (int_of_float (dfloat (fun (g : Gc.stat) -> g.promoted_words)));
      cadd "major_words" (int_of_float (dfloat (fun (g : Gc.stat) -> g.major_words)));
      cadd "minor_collections" (dint (fun (g : Gc.stat) -> g.minor_collections));
      cadd "major_collections" (dint (fun (g : Gc.stat) -> g.major_collections));
      cadd "compactions" (dint (fun (g : Gc.stat) -> g.compactions));
      cadd "forced_major_collections" (dint (fun (g : Gc.stat) -> g.forced_major_collections));
      Gauge.set_int (gauge ~scope:"runtime" "heap_words") s.heap_words;
      Gauge.set_int (gauge ~scope:"runtime" "top_heap_words") s.top_heap_words;
      last := Some s
    end
end

(* --- OpenMetrics / Prometheus text exposition --- *)

(** The registry as an OpenMetrics text exposition — the scrape surface a
    future [sparseqd] will serve at [/metrics], already consumable by
    Prometheus via file-based collection today:

    - counters → one [<family>_total] sample;
    - gauges → one [<family>] sample;
    - histograms → cumulative [<family>_bucket{le="…"}] samples (occupied
      buckets plus the mandatory [le="+Inf"], which equals
      [<family>_count]), [_sum], and [_count], with the sliding-window
      p50/p99/count exported as companion [_win_*] gauge families;
    - families sorted by name, [# EOF] terminated — the output of two
      identical registries is byte-identical.

    Metric names are [sparseq_<scope>_<name>] with non-[a-zA-Z0-9_]
    characters mapped to '_'. *)
module Openmetrics = struct
  let sanitize s =
    let b = Bytes.of_string s in
    Bytes.iteri
      (fun i c ->
        let ok =
          (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c = '_'
        in
        if not ok then Bytes.set b i '_')
      b;
    let s = Bytes.to_string b in
    if s = "" then "_" else if s.[0] >= '0' && s.[0] <= '9' then "_" ^ s else s

  let family ~scope ~name = "sparseq_" ^ sanitize scope ^ "_" ^ sanitize name

  (* Exposition floats: unlike JSON, the format has literal spellings for
     the specials, so nothing needs clamping. *)
  let float_str f =
    if Float.is_nan f then "NaN"
    else if f = Float.infinity then "+Inf"
    else if f = Float.neg_infinity then "-Inf"
    else Printf.sprintf "%.17g" f

  let block ~fam ~kind ~scope ~name body =
    let buf = Buffer.create 256 in
    Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" fam kind);
    Buffer.add_string buf (Printf.sprintf "# HELP %s sparseq metric %s\n" fam (full_name scope name));
    body buf;
    (fam, Buffer.contents buf)

  let gauge_block ~fam ~scope ~name v =
    block ~fam ~kind:"gauge" ~scope ~name (fun buf ->
        Buffer.add_string buf (Printf.sprintf "%s %s\n" fam (float_str v)))

  (* One registry entry as a list of (family, text) blocks; histograms
     expand to the histogram family plus the windowed companion gauges. *)
  let blocks_of ((scope, name), m) =
    let fam = family ~scope ~name in
    match m with
    | C c ->
        [
          block ~fam ~kind:"counter" ~scope ~name (fun buf ->
              Buffer.add_string buf (Printf.sprintf "%s_total %d\n" fam (Counter.get c)));
        ]
    | G g -> [ gauge_block ~fam ~scope ~name (Gauge.get g) ]
    | H h ->
        let w = Histogram.window_stats h in
        (* Cumulative counts from one pass over the buckets; the +Inf
           bucket and _count are both that bucket total. *)
        let hist =
          block ~fam ~kind:"histogram" ~scope ~name (fun buf ->
              let cum = ref 0 in
              for i = 0 to Histogram.nbuckets - 1 do
                let n = Histogram.bucket_count h i in
                if n > 0 then begin
                  cum := !cum + n;
                  Buffer.add_string buf
                    (Printf.sprintf "%s_bucket{le=\"%s\"} %d\n" fam
                       (float_str (Histogram.bucket_upper i))
                       !cum)
                end
              done;
              Buffer.add_string buf (Printf.sprintf "%s_bucket{le=\"+Inf\"} %d\n" fam !cum);
              Buffer.add_string buf (Printf.sprintf "%s_sum %s\n" fam (float_str (Histogram.sum h)));
              Buffer.add_string buf (Printf.sprintf "%s_count %d\n" fam !cum))
        in
        [
          hist;
          gauge_block ~fam:(fam ^ "_win_count") ~scope ~name (float_of_int w.Histogram.wcount);
          gauge_block ~fam:(fam ^ "_win_p50") ~scope ~name w.Histogram.wp50;
          gauge_block ~fam:(fam ^ "_win_p99") ~scope ~name w.Histogram.wp99;
        ]

  (** Render the whole registry. Advances the window epoch, like every
      snapshot path. *)
  let render () =
    Window.tick ();
    let blocks = List.concat_map blocks_of (sorted_entries ()) in
    let blocks = List.sort (fun (fa, _) (fb, _) -> compare (fa : string) fb) blocks in
    let buf = Buffer.create 4096 in
    List.iter (fun (_, text) -> Buffer.add_string buf text) blocks;
    Buffer.add_string buf "# EOF\n";
    Buffer.contents buf

  (** Periodic exposition writer: [tick] re-renders into the target file
      at most once per interval, [write_now] unconditionally. Rewrites are
      atomic (temp file in the same directory, then rename), so a scraper
      reading mid-write sees the previous complete exposition, never a
      torn one. Each write also takes a {!Runtime} sample, so a scraped
      file carries fresh GC/heap numbers. *)
  module Writer = struct
    type t = {
      path : string;
      interval_ns : float;
      mutable last_write : float;
      mutable writes : int;
    }

    let create ~path ~interval_ms =
      { path; interval_ns = float_of_int (max 0 interval_ms) *. 1e6; last_write = Float.neg_infinity; writes = 0 }

    let write_now w =
      Runtime.sample ();
      let text = render () in
      write_file_atomic w.path (fun oc -> output_string oc text);
      w.last_write <- now_ns ();
      w.writes <- w.writes + 1

    let tick w = if now_ns () -. w.last_write >= w.interval_ns then write_now w
    let writes w = w.writes
    let path w = w.path
  end

  (* The process-global installed writer: long-running loops
     (`stats --updates`, churn ops, pagerank rounds) call [pulse] between
     operations — outside any timed region — and the CLI installs/flushes
     it around each subcommand. *)
  let installed : Writer.t option ref = ref None
  let install w = installed := Some w
  let uninstall () = installed := None
  let pulse () = match !installed with None -> () | Some w -> Writer.tick w
end

(* --- hierarchical span tracing + the post-mortem flight recorder --- *)

(** Zero-dependency hierarchical tracer. A {e span} is a named, scoped
    wall-clock interval with key/value attributes and a parent (the span
    that was open when it started); an {e event} is an instant record.
    Both are gated on the same single {!set_enabled} flag as the metrics,
    so the disabled cost of an instrumented operation stays one load and
    one branch.

    Finished records flow into two sinks:

    - an optional in-memory {e recording} ({!with_recording},
      {!start_recording}/{!stop_recording}), exported as Chrome
      trace-event JSON ({!to_chrome}, loadable in Perfetto /
      [chrome://tracing]) or folded into a
      span tree ({!forest_of}) for explain plans;
    - an always-on fixed-size ring — the {e flight recorder} — retaining
      the last N records for post-mortem dumps ({!dump_flight}), fired
      automatically when [Robust] raises a structured error or a dynamic
      circuit is poisoned mid-wave. *)
module Trace = struct
  type attr = I of int | F of float | S of string | B of bool

  type span = {
    id : int;
    parent : int;  (** id of the enclosing span, or -1 for roots *)
    name : string;
    scope : string;
    start_ns : float;
    mutable end_ns : float;
    mutable attrs : (string * attr) list;
    mutable err : string option;  (** the exception that ended the span *)
  }

  type event = {
    ev_parent : int;
    ev_name : string;
    ev_scope : string;
    ts_ns : float;
    ev_attrs : (string * attr) list;
  }

  type record = RSpan of span | REvent of event

  let record_ts = function RSpan s -> s.start_ns | REvent e -> e.ts_ns

  let next_id = ref 0

  let fresh_id () =
    incr next_id;
    !next_id

  let stack : span list ref = ref []

  (* --- sinks --- *)

  let collecting : record list ref option ref = ref None

  (* The flight ring: [flight_buf.(i)] for i < capacity, written at
     [flight_total mod capacity]; [flight_total] counts every record ever
     written, so tests can observe the wrap. *)
  let flight_buf = ref (Array.make 256 None)
  let flight_total = ref 0

  let flight_capacity () = Array.length !flight_buf

  (** Resize the ring (dropping its current contents). *)
  let set_flight_capacity n =
    let n = max 1 n in
    flight_buf := Array.make n None;
    flight_total := 0

  let reset_flight () =
    Array.fill !flight_buf 0 (Array.length !flight_buf) None;
    flight_total := 0

  let emit r =
    (match !collecting with Some acc -> acc := r :: !acc | None -> ());
    let buf = !flight_buf in
    buf.(!flight_total mod Array.length buf) <- Some r;
    incr flight_total

  (** The ring's current contents, oldest first. *)
  let flight_records () =
    let buf = !flight_buf in
    let cap = Array.length buf in
    let total = !flight_total in
    let live = min total cap in
    let start = total - live in
    List.filter_map (fun i -> buf.((start + i) mod cap)) (List.init live Fun.id)

  (* --- span lifecycle --- *)

  let current_parent () = match !stack with s :: _ -> s.id | [] -> -1

  (* Pop [s] off the open-span stack; tolerate (and discard) deeper spans
     left open by a non-local exit, so one leaked span cannot misparent
     every later record. *)
  let pop_span s =
    let rec drop = function
      | top :: rest when top == s -> rest
      | _ :: rest -> drop rest
      | [] -> []
    in
    stack := drop !stack

  (** Run [f] inside a span. The span is finished (and recorded) even when
      [f] raises — the exception is noted on the span and re-raised. End
      times are clamped to the start time, so a backwards injected-clock step
      yields a zero-length span, not a negative one. *)
  let span ?(attrs = []) ~scope name f =
    if not !enabled_flag then f ()
    else begin
      let s =
        {
          id = fresh_id ();
          parent = current_parent ();
          name;
          scope;
          start_ns = now_ns ();
          end_ns = 0.;
          attrs;
          err = None;
        }
      in
      stack := s :: !stack;
      Fun.protect
        ~finally:(fun () ->
          let e = now_ns () in
          s.end_ns <- (if e < s.start_ns then s.start_ns else e);
          pop_span s;
          emit (RSpan s))
        (fun () ->
          try f ()
          with e ->
            let bt = Printexc.get_raw_backtrace () in
            s.err <- Some (Printexc.to_string e);
            Printexc.raise_with_backtrace e bt)
    end

  (** True while a recording sink is attached ({!with_recording} /
      {!start_recording}). Hot paths consult this to decide whether a
      per-operation span is worth its two clock reads. *)
  let is_recording () = !collecting <> None

  (** Hot-path variant of {!span} for sub-microsecond operations that run
      millions of times: a full span is opened only while a recording is
      being collected (traces stay complete) or when the caller marks
      this call [~force] (callers pass their systematic-sampling
      decision, so the flight ring keeps context around a crash). All
      other calls run [f] bare — and if [f] raises, the span is
      materialized post-hoc with the error attached, so a post-mortem
      flight dump always contains the fatal operation even though the
      healthy ones around it were skipped. The bare path costs two flag
      checks; the ≤5% telemetry budget on per-update workloads depends
      on it. *)
  let span_hot ?(force = false) ?attrs ~scope name f =
    if not !enabled_flag then f ()
    else if force || !collecting <> None then span ?attrs ~scope name f
    else
      try f ()
      with e ->
        let bt = Printexc.get_raw_backtrace () in
        let t = now_ns () in
        emit
          (RSpan
             {
               id = fresh_id ();
               parent = current_parent ();
               name;
               scope;
               start_ns = t;
               end_ns = t;
               attrs = Option.value ~default:[] attrs;
               err = Some (Printexc.to_string e);
             });
        Printexc.raise_with_backtrace e bt

  (** {!span_hot} driven by a {!sampler}: a sampled call opens a full span
      and records its duration in [h]; every other call runs [f] bare
      (still opening a span while a recording is being collected). *)
  let[@inline] span_sampled s h ~scope name f =
    let hit = sampled s in
    let t0 = if hit then now_ns () else 0. in
    let v = span_hot ~force:hit ~scope name f in
    if hit then Histogram.observe h (elapsed_ns t0);
    v

  (** Attach an attribute to the innermost open span (no-op when disabled
      or outside every span). *)
  let add_attr key v =
    if !enabled_flag then
      match !stack with s :: _ -> s.attrs <- (key, v) :: s.attrs | [] -> ()

  (** Record an instant event under the innermost open span. *)
  let event ?(attrs = []) ~scope name =
    if !enabled_flag then
      emit
        (REvent
           {
             ev_parent = current_parent ();
             ev_name = name;
             ev_scope = scope;
             ts_ns = now_ns ();
             ev_attrs = attrs;
           })

  (** Record an already-measured interval (a span whose start was sampled
      by the caller, e.g. one enumeration step) without entering it. *)
  let complete ?(attrs = []) ~scope name ~start_ns =
    if !enabled_flag then begin
      let e = now_ns () in
      emit
        (RSpan
           {
             id = fresh_id ();
             parent = current_parent ();
             name;
             scope;
             start_ns;
             end_ns = (if e < start_ns then start_ns else e);
             attrs;
             err = None;
           })
    end

  (* --- recordings --- *)

  let start_recording () = collecting := Some (ref [])

  (** Stop collecting; returns the recorded records in chronological
      (completion) order. Without a matching {!start_recording}: []. *)
  let stop_recording () =
    match !collecting with
    | None -> []
    | Some acc ->
        collecting := None;
        List.rev !acc

  (** [with_recording f] runs [f] with collection on; returns the result
      and the records. The previous recording (if any) is restored, and
      records collected here are also teed into it, so an enclosing
      recording (e.g. the CLI's [--trace] capture) still sees them. *)
  let with_recording f =
    let saved = !collecting in
    collecting := Some (ref []);
    let finish () =
      let records = stop_recording () in
      collecting := saved;
      (match saved with
      | Some acc -> acc := List.rev_append records !acc
      | None -> ());
      records
    in
    match f () with
    | r -> (r, finish ())
    | exception e ->
        ignore (finish ());
        raise e

  (* --- Chrome trace-event export --- *)

  let attr_json = function
    | I i -> Json.I i
    | F f -> Json.F f
    | S s -> Json.S s
    | B b -> Json.B b

  let args_json ~ids attrs err =
    Json.O
      (ids
      @ (match err with Some m -> [ ("raised", Json.S m) ] | None -> [])
      @ List.rev_map (fun (k, v) -> (k, attr_json v)) attrs)

  (** Records as a Chrome trace-event document (the JSON object form, with
      complete "X" events for spans and instant "i" events), loadable in
      Perfetto or [chrome://tracing]. Timestamps are microseconds, as the
      format requires; every record sits on [tid] 1, the one domain the
      engine runs on. *)
  let to_chrome (records : record list) : Json.t =
    let one = function
      | RSpan s ->
          Json.O
            [
              ("name", Json.S s.name);
              ("cat", Json.S s.scope);
              ("ph", Json.S "X");
              ("ts", Json.F (s.start_ns /. 1e3));
              ("dur", Json.F ((s.end_ns -. s.start_ns) /. 1e3));
              ("pid", Json.I 1);
              ("tid", Json.I 1);
              ( "args",
                args_json
                  ~ids:[ ("span_id", Json.I s.id); ("parent", Json.I s.parent) ]
                  s.attrs s.err );
            ]
      | REvent e ->
          Json.O
            [
              ("name", Json.S e.ev_name);
              ("cat", Json.S e.ev_scope);
              ("ph", Json.S "i");
              ("s", Json.S "t");
              ("ts", Json.F (e.ts_ns /. 1e3));
              ("pid", Json.I 1);
              ("tid", Json.I 1);
              ("args", args_json ~ids:[ ("parent", Json.I e.ev_parent) ] e.ev_attrs None);
            ]
    in
    Json.O
      [
        ("traceEvents", Json.A (List.map one records));
        ("displayTimeUnit", Json.S "ns");
      ]

  (* --- span trees (explain plans) --- *)

  type tree = { sp : span; children : tree list }

  (** Fold a recording into its span forest: roots are the spans whose
      parent is not in the recording; children are ordered by start time.
      Events are dropped (they carry no duration). *)
  let forest_of (records : record list) : tree list =
    let spans = List.filter_map (function RSpan s -> Some s | REvent _ -> None) records in
    let ids = Hashtbl.create 64 in
    List.iter (fun s -> Hashtbl.replace ids s.id ()) spans;
    let by_parent = Hashtbl.create 64 in
    List.iter
      (fun s ->
        if Hashtbl.mem ids s.parent then
          Hashtbl.replace by_parent s.parent
            (s :: Option.value ~default:[] (Hashtbl.find_opt by_parent s.parent)))
      spans;
    let rec build s =
      let kids =
        List.sort
          (fun a b -> compare a.start_ns b.start_ns)
          (Option.value ~default:[] (Hashtbl.find_opt by_parent s.id))
      in
      { sp = s; children = List.map build kids }
    in
    spans
    |> List.filter (fun s -> not (Hashtbl.mem ids s.parent))
    |> List.sort (fun a b -> compare a.start_ns b.start_ns)
    |> List.map build

  let duration_ns s = s.end_ns -. s.start_ns

  let attr_to_string = function
    | I i -> string_of_int i
    | F f -> Printf.sprintf "%.12g" f
    | S s -> s
    | B b -> string_of_bool b

  let attrs_to_string attrs =
    String.concat " "
      (List.rev_map (fun (k, v) -> Printf.sprintf "%s=%s" k (attr_to_string v)) attrs)

  (** Human-readable span tree — the explain-plan surface. Each line is
      one span with its duration and attributes; nodes with children also
      report {e coverage}: how much of the parent interval its children
      account for. *)
  let render_forest ?(max_children = 12) (forest : tree list) : string =
    let buf = Buffer.create 1024 in
    let rec go indent { sp; children } =
      Buffer.add_string buf
        (Printf.sprintf "%s%-*s %10.3fms  %s%s\n" indent
           (max 1 (32 - String.length indent))
           (sp.scope ^ "/" ^ sp.name)
           (duration_ns sp /. 1e6)
           (attrs_to_string sp.attrs)
           (match sp.err with Some m -> "  RAISED " ^ m | None -> ""));
      let shown, hidden =
        if List.length children <= max_children then (children, [])
        else begin
          let by_dur =
            List.sort (fun a b -> compare (duration_ns b.sp) (duration_ns a.sp)) children
          in
          let top = List.filteri (fun i _ -> i < max_children) by_dur in
          ( List.filter (fun c -> List.memq c top) children,
            List.filteri (fun i _ -> i >= max_children) by_dur )
        end
      in
      List.iter (go (indent ^ "  ")) shown;
      if hidden <> [] then
        Buffer.add_string buf
          (Printf.sprintf "%s  … %d more spans (%.3fms)\n" indent (List.length hidden)
             (List.fold_left (fun a c -> a +. duration_ns c.sp) 0. hidden /. 1e6));
      if children <> [] && duration_ns sp > 0. then
        Buffer.add_string buf
          (Printf.sprintf "%s  (children cover %.1f%% of %s)\n" indent
             (100.
             *. List.fold_left (fun a c -> a +. duration_ns c.sp) 0. children
             /. duration_ns sp)
             sp.name)
    in
    List.iter (go "") forest;
    Buffer.contents buf

  (* --- the post-mortem dump --- *)

  type dump_dest = Silent | Stderr | File of string

  (* Where automatic dumps go. Library-embedding default: Silent (tests
     raise classified errors on purpose); the CLI arms Stderr.
     SPARSEQ_FLIGHT=stderr|PATH overrides either way. *)
  let flight_dest =
    ref
      (match Sys.getenv_opt "SPARSEQ_FLIGHT" with
      | Some "stderr" -> Stderr
      | Some "" | None -> Silent
      | Some path -> File path)

  let set_flight_dest d = flight_dest := d

  (** The flight recorder's contents as a report: the last N records,
      oldest first, timestamps relative to the first retained record. *)
  let flight_report ~reason () =
    let records = flight_records () in
    let buf = Buffer.create 1024 in
    Buffer.add_string buf
      (Printf.sprintf "=== sparseq flight recorder: %s (last %d of %d records) ===\n" reason
         (List.length records) !flight_total);
    (match records with
    | [] -> Buffer.add_string buf "  (no records; tracing disabled or nothing ran)\n"
    | first :: _ ->
        let t0 = record_ts first in
        List.iter
          (fun r ->
            match r with
            | RSpan s ->
                Buffer.add_string buf
                  (Printf.sprintf "  [+%10.3fms] span  %s/%s (id %d, parent %d) %.3fms %s%s\n"
                     ((s.start_ns -. t0) /. 1e6)
                     s.scope s.name s.id s.parent (duration_ns s /. 1e6)
                     (attrs_to_string s.attrs)
                     (match s.err with Some m -> "  RAISED " ^ m | None -> ""))
            | REvent e ->
                Buffer.add_string buf
                  (Printf.sprintf "  [+%10.3fms] event %s/%s (parent %d) %s\n"
                     ((e.ts_ns -. t0) /. 1e6)
                     e.ev_scope e.ev_name e.ev_parent (attrs_to_string e.ev_attrs)))
          records);
    Buffer.add_string buf "=== end of flight recorder ===\n";
    Buffer.contents buf

  (** Dump the flight recorder to the configured destination. Called
      automatically on structured errors and mid-wave poisonings; safe to
      call by hand after any failure. *)
  let dump_flight ~reason () =
    match !flight_dest with
    | Silent -> ()
    | Stderr -> prerr_string (flight_report ~reason ())
    | File path ->
        let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
        Fun.protect
          ~finally:(fun () -> close_out oc)
          (fun () -> output_string oc (flight_report ~reason ()))

  (** Hook for [Robust]: record the structured error as an event and fire
      the post-mortem dump. *)
  let note_error ~kind msg =
    if !enabled_flag then begin
      event ~scope:"robust" ~attrs:[ ("kind", S kind); ("msg", S msg) ] "error";
      dump_flight ~reason:(kind ^ ": " ^ msg) ()
    end
end

(** Plain-text dump, one metric per line, sorted by (scope, name) so two
    runs of the same seed diff cleanly. Advances the window epoch, like
    every snapshot path. *)
let snapshot_human () =
  Window.tick ();
  let buf = Buffer.create 1024 in
  sorted_entries ()
  |> List.iter (fun ((scope, n), m) ->
         let name = full_name scope n in
         match m with
         | C c -> Buffer.add_string buf (Printf.sprintf "%-40s %d\n" name (Counter.get c))
         | G g -> Buffer.add_string buf (Printf.sprintf "%-40s %.12g\n" name (Gauge.get g))
         | H h ->
             let w = Histogram.window_stats h in
             Buffer.add_string buf
               (Printf.sprintf
                  "%-40s count=%d mean=%.0f p50=%.0f p99=%.0f max=%.0f win(count=%d p50=%.0f p99=%.0f)\n"
                  name (Histogram.count h) (Histogram.mean h) (Histogram.p50 h)
                  (Histogram.p99 h) (Histogram.max_value h) w.Histogram.wcount
                  w.Histogram.wp50 w.Histogram.wp99));
  Buffer.contents buf
