(** Structured errors and resource budgets for the compile → evaluate →
    update pipeline.

    Every failure the engine internals can produce is classified into one
    of five categories, so callers (the CLI, a service wrapper, the fuzz
    harness) can decide programmatically whether to reject the request,
    retry with different parameters, or degrade to the brute-force
    reference evaluator:

    - [Unsupported_fragment] — the query is outside the implemented
      fragment (too many variables per summand, unguarded quantification,
      a forest deeper than the compiler accepts, …). Degradable: the
      reference evaluator still computes the answer.
    - [Budget_exceeded] — a cooperative resource budget (gate count,
      wall-clock) fired during compilation. Degradable.
    - [Ill_typed] — a nested formula mixes semirings or misuses a
      connective. Not degradable: the query itself is meaningless.
    - [Bad_input] — malformed data: arity mismatches, out-of-domain
      elements, unknown relation/weight symbols, wrong query arity.
    - [Internal_divergence] — the engine caught itself misbehaving: the
      self-check found circuit and reference disagreeing, or a fault
      mid-update poisoned a dynamic circuit. Always a bug report. *)

type error =
  | Unsupported_fragment of string
  | Budget_exceeded of string
  | Ill_typed of string
  | Bad_input of string
  | Internal_divergence of string

exception Error of error

let constructor_name = function
  | Unsupported_fragment _ -> "unsupported-fragment"
  | Budget_exceeded _ -> "budget-exceeded"
  | Ill_typed _ -> "ill-typed"
  | Bad_input _ -> "bad-input"
  | Internal_divergence _ -> "internal-divergence"

let message = function
  | Unsupported_fragment m | Budget_exceeded m | Ill_typed m | Bad_input m
  | Internal_divergence m ->
      m

let to_string e = Printf.sprintf "%s: %s" (constructor_name e) (message e)
let pp_error fmt e = Format.pp_print_string fmt (to_string e)

(** Can the reference evaluator still answer after this error? *)
let degradable = function
  | Unsupported_fragment _ | Budget_exceeded _ -> true
  | Ill_typed _ | Bad_input _ | Internal_divergence _ -> false

let () =
  Printexc.register_printer (function
    | Error e -> Some ("Robust.Error (" ^ to_string e ^ ")")
    | _ -> None)

(* Every classified failure is counted per category under the "robust"
   scope, so budget hits and degradations show up in metric snapshots
   rather than only as raised exceptions. *)
let raised_counters =
  List.map
    (fun e -> (constructor_name e, Obs.counter ~scope:"robust" ("raised_" ^ constructor_name e)))
    [
      Unsupported_fragment "";
      Budget_exceeded "";
      Ill_typed "";
      Bad_input "";
      Internal_divergence "";
    ]

let count_error e = Obs.Counter.incr (List.assoc (constructor_name e) raised_counters)

let error e =
  count_error e;
  (* Post-mortem hook: record the failure in the trace stream and flush
     the flight recorder (a no-op unless a dump destination is armed). *)
  Obs.Trace.note_error ~kind:(constructor_name e) (message e);
  raise (Error e)
let bad_input fmt = Printf.ksprintf (fun s -> error (Bad_input s)) fmt
let unsupported fmt = Printf.ksprintf (fun s -> error (Unsupported_fragment s)) fmt
let budget_exceeded fmt = Printf.ksprintf (fun s -> error (Budget_exceeded s)) fmt
let ill_typed fmt = Printf.ksprintf (fun s -> error (Ill_typed s)) fmt
let divergence fmt = Printf.ksprintf (fun s -> error (Internal_divergence s)) fmt

(* --- resource budgets --- *)

(** Limits enforced cooperatively during compilation: the compiler calls
    {!check} as gates are emitted and fails fast with [Budget_exceeded]
    instead of exhausting memory or stalling on a hostile query. *)
type budget = {
  max_gates : int option;  (** circuit gates the compiler may emit *)
  timeout_ms : int option;  (** elapsed milliseconds ({!Obs.now_ns}) for one compile *)
}

let budget ?max_gates ?timeout_ms () = { max_gates; timeout_ms }
let unlimited = { max_gates = None; timeout_ms = None }
let is_unlimited b = b.max_gates = None && b.timeout_ms = None

(** A running budget: its limits plus the time charged so far. Time is
    read from {!Obs.now_ns} (monotonic unless a test injects a clock) and
    charged step by step, each step clamped at 0, so a backwards step of
    an injected clock neither fires the timeout nor delays it. *)
type monitor = { b : budget; mutable last_ns : float; mutable elapsed_ns : float }

let start b = { b; last_ns = Obs.now_ns (); elapsed_ns = 0. }

let budget_checks = Obs.counter ~scope:"robust" "budget_checks"

(** Cooperative check-point; raises [Error (Budget_exceeded _)]. *)
let check m ~gates =
  Obs.Counter.incr budget_checks;
  (match m.b.max_gates with
  | Some limit when gates > limit ->
      budget_exceeded "compilation emitted %d gates, budget is %d" gates limit
  | _ -> ());
  match m.b.timeout_ms with
  | Some limit ->
      let now = Obs.now_ns () in
      m.elapsed_ns <- m.elapsed_ns +. Float.max 0. (now -. m.last_ns);
      m.last_ns <- now;
      let elapsed_ms = m.elapsed_ns /. 1e6 in
      if elapsed_ms > float_of_int limit then
        budget_exceeded "compilation ran %.1f ms, budget is %d ms" elapsed_ms limit
  | None -> ()

(* --- exception classification --- *)

let contains_any msg subs =
  let lower = String.lowercase_ascii msg in
  List.exists
    (fun sub ->
      let ls = String.lowercase_ascii sub and n = String.length lower in
      let k = String.length ls in
      let rec go i = i + k <= n && (String.sub lower i k = ls || go (i + 1)) in
      go 0)
    subs

(* Legacy [invalid_arg]/[failwith] messages from the internals, sorted into
   the taxonomy by their phrasing. New code raises [Error] directly; this
   is the backstop for paths not yet converted. *)
let classify_message msg =
  if contains_any msg [ "not implemented"; "quantifier"; "supported"; "requires"; "exceeds" ]
  then Unsupported_fragment msg
  else if contains_any msg [ "too large"; "too many" ] then Budget_exceeded msg
  else if contains_any msg [ "semiring"; "boolean"; "type" ] then Ill_typed msg
  else Bad_input msg

(** Classify an arbitrary exception; [None] means "not ours, re-raise". *)
let classify_exn : exn -> error option = function
  | Error e -> Some e
  | Invalid_argument msg | Failure msg -> Some (classify_message msg)
  | Not_found -> Some (Bad_input "lookup failed (Not_found escaped the internals)")
  | Stack_overflow -> Some (Budget_exceeded "stack overflow")
  | Out_of_memory -> Some (Budget_exceeded "out of memory")
  | _ -> None

(** Run [f], converting classified exceptions into [Result.Error]. A
    [classify] hook runs first so callers can map their own exception
    constructors (e.g. [Nested.Ill_typed]) before the generic backstop;
    unrecognized exceptions propagate unchanged. *)
let protect ?(classify = fun _ -> None) (f : unit -> 'a) : ('a, error) result =
  try Ok (f ()) with
  | e -> (
      (* [Error _] was already counted at its raise site; count the legacy
         exceptions the classifiers convert here. *)
      let counted err = (match e with Error _ -> () | _ -> count_error err); Result.Error err in
      match classify e with
      | Some err -> counted err
      | None -> (
          match classify_exn e with
          | Some err -> counted err
          | None -> raise e))
