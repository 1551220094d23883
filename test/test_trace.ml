(* Tests for the span tracer and flight recorder: structural
   well-formedness of recorded span trees (qcheck), flight-ring wrap
   semantics past the capacity (qcheck), the negative-duration clamp
   under a backwards-stepping wall clock, Chrome trace-event export
   parseability (shared recursive-descent parser), and the post-mortem
   acceptance path — a fault injected mid-wave dumps a flight report
   containing the poisoning wave's span. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let nat_ops = Semiring.Intf.ops_of_module (module Semiring.Instances.Nat)

let spans_of records =
  List.filter_map (function Obs.Trace.RSpan s -> Some s | Obs.Trace.REvent _ -> None) records

(* --- qcheck: recorded spans form a properly nested forest --- *)

(* Run a randomly shaped tree of nested spans (shape drawn from the seed)
   and record it; every child interval must sit inside its parent's, and
   every non-root parent id must itself be in the recording. *)
let rec run_shape st depth =
  let kids = if depth >= 3 then 0 else Random.State.int st 3 in
  Obs.Trace.span ~scope:"test" (Printf.sprintf "d%d" depth) (fun () ->
      for _ = 1 to kids do
        run_shape st (depth + 1)
      done)

let spans_nested =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"recorded spans are properly nested" ~count:100
       QCheck.(pair small_int (int_range 1 5))
       (fun (seed, roots) ->
         let st = Random.State.make [| seed |] in
         let (), records =
           Obs.Trace.with_recording (fun () ->
               for _ = 1 to roots do
                 run_shape st 0
               done)
         in
         let spans = spans_of records in
         let by_id = Hashtbl.create 16 in
         List.iter (fun s -> Hashtbl.replace by_id s.Obs.Trace.id s) spans;
         List.for_all
           (fun s ->
             let open Obs.Trace in
             s.end_ns >= s.start_ns
             &&
             match Hashtbl.find_opt by_id s.parent with
             (* no dangling parents: a span either is a root (no enclosing
                span at record time) or its parent is in the recording *)
             | None -> s.parent = -1
             | Some p -> s.start_ns >= p.start_ns && s.end_ns <= p.end_ns)
           spans))

(* forest_of must account for every span exactly once *)
let forest_partitions () =
  let st = Random.State.make [| 7 |] in
  let (), records =
    Obs.Trace.with_recording (fun () ->
        run_shape st 0;
        run_shape st 0)
  in
  let rec count { Obs.Trace.children; _ } =
    1 + List.fold_left (fun a c -> a + count c) 0 children
  in
  let forest = Obs.Trace.forest_of records in
  check_int "forest covers all spans"
    (List.length (spans_of records))
    (List.fold_left (fun a t -> a + count t) 0 forest)

(* --- qcheck: the flight ring retains exactly the last N records --- *)

let flight_ring_wraps =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"flight ring keeps the last N records" ~count:60
       QCheck.(pair (int_range 1 50) (int_range 0 200))
       (fun (cap, count) ->
         Obs.Trace.set_flight_capacity cap;
         Fun.protect
           ~finally:(fun () -> Obs.Trace.set_flight_capacity 256)
           (fun () ->
             for i = 0 to count - 1 do
               Obs.Trace.event ~scope:"test" (Printf.sprintf "e%d" i)
             done;
             let got =
               List.filter_map
                 (function
                   | Obs.Trace.REvent e -> Some e.Obs.Trace.ev_name
                   | Obs.Trace.RSpan _ -> None)
                 (Obs.Trace.flight_records ())
             in
             let want =
               List.init (min count cap) (fun i ->
                   Printf.sprintf "e%d" (count - min count cap + i))
             in
             got = want)))

(* --- the negative-duration clamp (backwards wall clock) --- *)

let backwards_clock_clamps () =
  (* a clock that steps backwards 1ms on every read *)
  let t = ref 1e12 in
  let backwards () =
    t := !t -. 1e6;
    !t
  in
  Fun.protect
    ~finally:(fun () -> Obs.set_clock None)
    (fun () ->
      Obs.set_clock (Some backwards);
      check_bool "elapsed_ns clamps to 0" true (Obs.elapsed_ns (Obs.now_ns ()) = 0.);
      let h = Obs.Histogram.make () in
      Obs.Histogram.observe h (Obs.elapsed_ns (Obs.now_ns ()));
      Alcotest.(check (float 1e-9)) "timer observes 0" 0. (Obs.Histogram.max_value h);
      let (), records =
        Obs.Trace.with_recording (fun () ->
            Obs.Trace.span ~scope:"test" "negative" (fun () -> ()))
      in
      match spans_of records with
      | [ s ] ->
          check_bool "span end clamps to start" true
            (s.Obs.Trace.end_ns = s.Obs.Trace.start_ns)
      | l -> Alcotest.failf "expected 1 span, got %d" (List.length l))

(* --- Chrome export is machine-parseable (incl. special floats) --- *)

let chrome_parseable () =
  let (), records =
    Obs.Trace.with_recording (fun () ->
        Obs.Trace.span ~scope:"test" "outer"
          ~attrs:[ ("nan", Obs.Trace.F Float.nan); ("inf", Obs.Trace.F Float.infinity) ]
          (fun () ->
            Obs.Trace.event ~scope:"test" "tick";
            Obs.Trace.span ~scope:"test" "inner" (fun () -> Obs.Trace.add_attr "k" (Obs.Trace.I 3))))
  in
  let j = Obs.Json.to_string (Obs.Trace.to_chrome records) in
  (match Json_parse.validate j with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg);
  check_bool "has traceEvents" true
    (String.length j > 15 && String.sub j 0 15 = "{\"traceEvents\":")

(* --- chrome export: one lane, unique span ids, resolvable parents --- *)

(* the engine is single-domain, so every exported record sits on tid 1;
   span ids must be unique and every parent named in [args] must be -1
   (a root) or the id of an exported span *)
let chrome_lane_and_ids () =
  let (), records =
    Obs.Trace.with_recording (fun () ->
        Obs.Trace.span ~scope:"test" "a" (fun () ->
            Obs.Trace.event ~scope:"test" "e1";
            Obs.Trace.span ~scope:"test" "b" (fun () -> Obs.Trace.event ~scope:"test" "e2");
            Obs.Trace.span ~scope:"test" "c" (fun () -> ()));
        Obs.Trace.span ~scope:"test" "d" (fun () -> ());
        Obs.Trace.complete ~scope:"test" "done" ~start_ns:(Obs.now_ns ()))
  in
  let events =
    match Obs.Trace.to_chrome records with
    | Obs.Json.O fields -> (
        match List.assoc_opt "traceEvents" fields with
        | Some (Obs.Json.A evs) -> evs
        | _ -> Alcotest.fail "no traceEvents array")
    | _ -> Alcotest.fail "chrome export is not an object"
  in
  check_int "every record exported" (List.length records) (List.length events);
  let field k = function
    | Obs.Json.O fs -> List.assoc_opt k fs
    | _ -> None
  in
  let arg k ev =
    match Option.bind (field "args" ev) (field k) with
    | Some (Obs.Json.I i) -> Some i
    | _ -> None
  in
  List.iter
    (fun ev -> check_bool "record on tid 1" true (field "tid" ev = Some (Obs.Json.I 1)))
    events;
  let ids = List.filter_map (arg "span_id") events in
  check_int "one span id per span" (List.length (spans_of records)) (List.length ids);
  check_int "span ids unique" (List.length ids) (List.length (List.sort_uniq compare ids));
  List.iter
    (fun ev ->
      match arg "parent" ev with
      | Some p -> check_bool "parent resolves" true (p = -1 || List.mem p ids)
      | None -> Alcotest.fail "record without a parent")
    events

(* --- acceptance: a fault mid-wave dumps the faulting wave's span,
   tagged with the rolled_back outcome --- *)

let small_circuit () =
  let b = Circuits.Circuit.builder () in
  let w i = Circuits.Circuit.input b ("w", [ i ]) in
  let s1 = Circuits.Circuit.add b [ w 1; w 2 ] in
  let s2 = Circuits.Circuit.add b [ w 3; Circuits.Circuit.const b 5 ] in
  Circuits.Circuit.finish b ~output:(Circuits.Circuit.mul b [ s1; s2 ])

let poison_dumps_wave_span () =
  let path = Filename.temp_file "sparseq_flight" ".txt" in
  Fun.protect
    ~finally:(fun () ->
      Obs.Trace.set_flight_dest Obs.Trace.Silent;
      Sys.remove path)
    (fun () ->
      Obs.Trace.reset_flight ();
      Obs.Trace.set_flight_dest (Obs.Trace.File path);
      let d =
        Circuits.Dyn.create ~mode:Circuits.Dyn.General nat_ops (small_circuit ())
          (function "w", [ i ] -> i | _ -> 0)
      in
      Circuits.Dyn.set_fault_hook d (Some (fun _ -> failwith "injected fault"));
      (match Circuits.Dyn.set_input d ("w", [ 1 ]) 99 with
      | () -> Alcotest.fail "faulted wave must raise"
      | exception Circuits.Dyn.Rolled_back _ -> ());
      check_bool "structure rolled back, not poisoned" true
        (Circuits.Dyn.poisoned d = None);
      let ic = open_in path in
      let n = in_channel_length ic in
      let report = really_input_string ic n in
      close_in ic;
      let contains needle hay =
        let nl = String.length needle and hl = String.length hay in
        let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
        go 0
      in
      check_bool "report is tagged rolled_back" true (contains "rolled_back" report);
      check_bool "report contains the wave span" true (contains "dyn/update" report);
      check_bool "wave span shows the fault" true (contains "injected fault" report))

let suite =
  [
    spans_nested;
    Alcotest.test_case "forest_of covers every span" `Quick forest_partitions;
    flight_ring_wraps;
    Alcotest.test_case "backwards clock clamps durations" `Quick backwards_clock_clamps;
    Alcotest.test_case "chrome export parses" `Quick chrome_parseable;
    Alcotest.test_case "chrome export: one tid, unique ids, parents resolve" `Quick
      chrome_lane_and_ids;
    Alcotest.test_case "mid-wave fault dumps the wave span" `Quick poison_dumps_wave_span;
  ]
