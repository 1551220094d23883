(* Growable sample buffers and exact nearest-rank quantiles. *)

(* [ts] holds the clock reading at which each sample was taken; [cuts]
   are the sample counts at which earlier time slices ended, newest
   first. *)
type t = { mutable a : float array; mutable ts : int array; mutable n : int; mutable cuts : int list }

let create () = { a = Array.make 1024 0.; ts = Array.make 1024 0; n = 0; cuts = [] }

let add t v =
  if t.n = Array.length t.a then begin
    t.a <- Array.append t.a (Array.make t.n 0.);
    t.ts <- Array.append t.ts (Array.make t.n 0)
  end;
  t.a.(t.n) <- v;
  t.ts.(t.n) <- Clock.now_ns ();
  t.n <- t.n + 1

(* The same samples and slices, each multiplied by the machine-speed
   factor of the moment it was taken (see Calib). *)
let scaled t =
  let a = Array.init t.n (fun i -> t.a.(i) *. Calib.factor_at t.ts.(i)) in
  { a; ts = Array.sub t.ts 0 t.n; n = t.n; cuts = t.cuts }

let count t = t.n

let clear t =
  t.n <- 0;
  t.cuts <- []

(* End the current time slice. *)
let cut t = match t.cuts with c :: _ when c >= t.n -> () | _ -> t.cuts <- t.n :: t.cuts

let sum t =
  let s = ref 0. in
  for i = 0 to t.n - 1 do
    s := !s +. t.a.(i)
  done;
  !s

let sorted t =
  let s = Array.sub t.a 0 t.n in
  Array.sort Float.compare s;
  s

let quantile_sorted s q =
  let n = Array.length s in
  if n = 0 then Float.nan
  else s.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

let quantile t q = quantile_sorted (sorted t) q

(* Highest of the standard tail percentiles that still has at least ten
   samples beyond it. *)
let tail_q t =
  let n = float_of_int t.n in
  List.find_opt (fun q -> n *. (1. -. q) >= 10.) [ 0.999; 0.99; 0.95; 0.9; 0.75; 0.5 ]
  |> Option.value ~default:0.5

let median_of (xs : float list) =
  match xs with
  | [] -> Float.nan
  | _ ->
      let a = Array.of_list xs in
      Array.sort Float.compare a;
      quantile_sorted a 0.5

(* The samples of each time slice, oldest first (empty slices dropped). *)
let slices t =
  let bounds = List.rev (if t.cuts = [] || List.hd t.cuts < t.n then t.n :: t.cuts else t.cuts) in
  let rec go lo = function
    | [] -> []
    | hi :: rest -> if hi > lo then Array.sub t.a lo (hi - lo) :: go hi rest else go hi rest
  in
  go 0 bounds

(* [f] of every time slice, then the median over slices: a statistic of
   the typical slice, robust to episodes of host contention that cover a
   minority of the run. *)
let sliced t f = median_of (List.map f (slices t))

(* The quantile [q] of every time slice, then the median over slices;
   when some slice holds fewer than 50 samples beyond [q] (too few for a
   steady per-slice quantile), the quantile of the whole window instead. *)
let sliced_quantile t q =
  let ss = slices t in
  if List.exists (fun a -> float_of_int (Array.length a) *. (1. -. q) < 50.) ss then quantile t q
  else
    median_of
      (List.map
         (fun a ->
           Array.sort Float.compare a;
           quantile_sorted a q)
         ss)

let sliced_mean t = sliced t (fun a -> Array.fold_left ( +. ) 0. a /. float_of_int (Array.length a))

(* Summary for the report: count, the p50 of each time slice, the pooled
   p50, p90, p99 and the tail percentile with at least ten samples beyond
   it. *)
let summary t : Obs.Json.t =
  let s = sorted t in
  let q x = Obs.Json.F (quantile_sorted s x) in
  let tq = tail_q t in
  Obs.Json.O
    [
      ("count", Obs.Json.I t.n);
      ( "slice_p50s",
        Obs.Json.A
          (List.map
             (fun a ->
               Array.sort Float.compare a;
               Obs.Json.F (quantile_sorted a 0.5))
             (slices t)) );
      ("p50", q 0.5);
      ("p90", q 0.9);
      ("p99", q 0.99);
      ("tail_q", Obs.Json.F tq);
      ("tail", q tq);
    ]
