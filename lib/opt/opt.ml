(** The circuit optimizer (the "optimize once, consume everywhere" layer
    between {!Engine.Compile} and its consumers).

    Theorem 6 compiles one circuit that serves every semiring; this module
    shrinks that circuit {e before} it is evaluated, maintained
    ({!Circuits.Dyn}), enumerated ({!Fo_enum}) or interpreted in the free
    semiring ({!Provenance}). Every rewrite is safe in {e every} semiring
    containing the circuit's constants, because only the 0/1 identity and
    annihilation axioms plus associativity/commutativity are used. Two
    forward sweeps do it, each with two jobs:

    - {b merge} — identity folding and hash-consing in one pass. Folding
      drops [zero] summands and [one] factors, collapses [Add [||]] to
      [zero] and [Mul [||]] to [one] (the explicit fold-seed convention of
      {!Circuits.Circuit.eval}), annihilates any [Mul] containing a [zero]
      factor, and aliases a gate left with a single child to that child.
      Every gate that survives is then merged with a structurally equal
      earlier one: [Add]/[Mul] children are compared as multisets (all
      semirings here are commutative) and are {e never} deduplicated,
      since [a + a ≠ a] outside idempotent semirings.
    - {b balance} — dead-gate removal and fan-in capping. It marks the
      output cone of the merged circuit, so the gates merging orphaned
      (the other factors of an annihilated product, say) are dropped,
      then emits the live gates with every gate wider than {!balance_cap}
      split into a tree of fan-in at most [balance_cap]. This is the only
      fan-in bound {!Circuits.Dyn} relies on: in General mode an input
      update recomputes O(log n) gates of at most [balance_cap] children
      each.

    Each sweep rebuilds the circuit; consumers address it through weight
    keys, and [input_ids] is rebuilt by the builder's own hash-consing,
    so no gate id of the pre-optimization circuit survives or is needed.
    Gate creation order stays a topological order — each sweep emits
    children before parents — which {!Circuits.Dyn} relies on (and
    {!Circuits.Circuit.finish} validates). *)

module Circuit = Circuits.Circuit

(** Whether {!Engine.Compile} optimizes: {!default} runs both sweeps,
    {!none} ([--opt=none]) hands the raw compiler output downstream. *)
type setting = bool

let default : setting = true
let none : setting = false

(** Maximum fan-in [balance] leaves behind. Wide gates become
    [balance_cap]-ary trees of depth ⌈log_cap fan-in⌉, so a General-mode
    update reads at most [balance_cap] children per recomputed gate. *)
let balance_cap = 8

(* Shrink observables (scope "opt"): the gauges hold the most recent
   run's gate counts. *)
let m_runs = Obs.counter ~scope:"opt" "runs"
let g_gates_before = Obs.gauge ~scope:"opt" "gates_before"
let g_gates_after = Obs.gauge ~scope:"opt" "gates_after"

(** The circuit before and after one {!run} (recorded in
    {!Engine.Compile.meta} and printed by [sparseq explain]). *)
type report = { raw : Circuit.stats; optimized : Circuit.stats }

let pp_report fmt { raw; optimized } =
  let arrow f = Printf.sprintf "%d->%d" (f raw) (f optimized) in
  Format.fprintf fmt "gates %s edges %s depth %s (%.1f%% fewer gates)"
    (arrow (fun s -> s.Circuit.gates))
    (arrow (fun s -> s.Circuit.edges))
    (arrow (fun s -> s.Circuit.depth))
    (100. *. float_of_int (raw.Circuit.gates - optimized.Circuit.gates)
    /. float_of_int raw.Circuit.gates)

(** An optimized circuit and its shrink report. *)
type 'a optimized = { circuit : 'a Circuit.t; report : report }

(** The raw circuit, handed downstream as it is ({!none}). *)
let unoptimized c =
  let s = Circuit.stats c in
  { circuit = c; report = { raw = s; optimized = s } }

(* --- merge: identity folding and hash-consing --- *)

(* Value class of a gate, tracked bottom-up so parents can fold without
   re-inspecting children: statically [zero], statically [one], or
   unknown. Only [Const] gates seed the classes — [Input] values are
   unknown by definition and [Perm]/composite gates are never classified
   (their value depends on inputs). *)
type cls = CZero | COne | COther

(* Canonical key of a gate over already-merged children: a tag (0 Add,
   1 Mul, 2 Perm), then the children — for Add/Mul sorted, in the key
   only (commutativity makes the multiset canonical; the emitted gate
   keeps its original child order), for Perm the row count and the rows
   in order. The hash reads every child, so wide gates sharing a prefix
   do not collide. [Const] gates are matched with the caller's [equal]
   through a linear table — the polymorphic hash cannot be trusted to
   agree with a custom equality, and compiled circuits carry a handful of
   distinct constants at most. *)
module Key = Hashtbl.Make (struct
  type t = int array

  let equal (a : t) (b : t) = a = b
  let hash (a : t) = Array.fold_left (fun h g -> (h * 31) + g) 0 a land max_int
end)

let merge (type a) ~(zero : a) ~(one : a) ~(equal : a -> a -> bool) (c : a Circuit.t) :
    a Circuit.t =
  let n = Array.length c.Circuit.nodes in
  let b = Circuit.builder () in
  let remap = Array.make n (-1) in
  let cls = Array.make n COther in
  let tbl = Key.create (max 256 (n / 2)) in
  let consts : (a * int) list ref = ref [] in
  let const s =
    match List.find_opt (fun (v, _) -> equal v s) !consts with
    | Some (_, g) -> g
    | None ->
        let g = Circuit.const b s in
        consts := (s, g) :: !consts;
        g
  in
  let consed k emit =
    match Key.find_opt tbl k with
    | Some g -> g
    | None ->
        let g = emit () in
        Key.replace tbl k g;
        g
  in
  (* the gate over the children [kept] that fold left, as [ident] when
     none is left and as the child itself when one is *)
  let gate ident mk tag kept =
    match kept with
    | [] -> (const (if ident = CZero then zero else one), ident)
    | [ g ] -> (remap.(g), cls.(g))
    | kept ->
        let mapped = Array.of_list (List.map (fun g -> remap.(g)) kept) in
        let sorted = Array.copy mapped in
        Array.sort Int.compare sorted;
        (consed (Array.append [| tag |] sorted) (fun () -> Circuit.push b (mk mapped)), COther)
  in
  let without k gs = List.filter (fun g -> cls.(g) <> k) (Array.to_list gs) in
  Array.iteri
    (fun id node ->
      let g, k =
        match node with
        | Circuit.Input key -> (Circuit.input b key, COther) (* builder hash-conses inputs *)
        | Circuit.Const s ->
            if equal s zero then (const zero, CZero)
            else if equal s one then (const one, COne)
            else (const s, COther)
        | Circuit.Add gs ->
            gate CZero (fun l -> Circuit.Add l) 0 (without CZero gs)
        | Circuit.Mul gs ->
            if Array.exists (fun g -> cls.(g) = CZero) gs then (const zero, CZero)
            else gate COne (fun l -> Circuit.Mul l) 1 (without COne gs)
        | Circuit.Perm rows ->
            let mapped = Array.map (Array.map (fun g -> remap.(g))) rows in
            let key = Array.concat ([| 2; Array.length rows |] :: Array.to_list mapped) in
            (consed key (fun () -> Circuit.perm b mapped), COther)
      in
      remap.(id) <- g;
      cls.(id) <- k)
    c.Circuit.nodes;
  Circuit.finish b ~output:remap.(c.Circuit.output)

(* --- balance: dead-gate removal and fan-in capping --- *)

let balance (c : 'a Circuit.t) : 'a Circuit.t =
  let n = Array.length c.Circuit.nodes in
  let live = Array.make n false in
  live.(c.Circuit.output) <- true;
  (* gate ids are topological, so one backward sweep marks the cone *)
  for id = n - 1 downto 0 do
    if live.(id) then
      match c.Circuit.nodes.(id) with
      | Circuit.Input _ | Circuit.Const _ -> ()
      | Circuit.Add gs | Circuit.Mul gs -> Array.iter (fun g -> live.(g) <- true) gs
      | Circuit.Perm rows -> Array.iter (Array.iter (fun g -> live.(g) <- true)) rows
  done;
  let b = Circuit.builder () in
  let remap = Array.make n (-1) in
  (* Chunk [gs] into groups of at most [balance_cap], emit a gate per
     group, recurse on the group gates: a [balance_cap]-ary tree of depth
     ⌈log_cap fan-in⌉. Children are emitted before parents, preserving
     the topological order. *)
  let rec tree mk gs =
    let len = Array.length gs in
    if len <= balance_cap then mk gs
    else begin
      let nchunks = (len + balance_cap - 1) / balance_cap in
      let chunks =
        Array.init nchunks (fun i ->
            let lo = i * balance_cap in
            mk (Array.sub gs lo (min balance_cap (len - lo))))
      in
      tree mk chunks
    end
  in
  let mapped gs = Array.map (fun g -> remap.(g)) gs in
  Array.iteri
    (fun id node ->
      if live.(id) then
        remap.(id) <-
          (match node with
          | Circuit.Input key -> Circuit.input b key
          | Circuit.Const s -> Circuit.const b s
          | Circuit.Add gs -> tree (fun l -> Circuit.push b (Circuit.Add l)) (mapped gs)
          | Circuit.Mul gs -> tree (fun l -> Circuit.push b (Circuit.Mul l)) (mapped gs)
          | Circuit.Perm rows -> Circuit.perm b (Array.map mapped rows)))
    c.Circuit.nodes;
  Circuit.finish b ~output:remap.(c.Circuit.output)

(* --- the optimizer --- *)

(** Optimize: {!merge}, then {!balance}. [equal] decides constant
    equality for identity folding and hash-consing; it defaults to
    structural equality, which is correct for every first-order constant
    type — pass the semiring's own [equal] (as {!Engine.Eval.prepare}
    does) when constants have non-canonical representations. The result's
    value agrees with the input circuit's in every commutative semiring
    where [zero]/[one] are the additive/multiplicative identities and
    [zero] annihilates. *)
let run (type a) ~(zero : a) ~(one : a) ?(equal : a -> a -> bool = ( = )) (c : a Circuit.t) :
    a optimized =
  let raw = Circuit.stats c in
  Obs.Trace.span ~scope:"opt" "optimize" ~attrs:[ ("gates", Obs.Trace.I raw.Circuit.gates) ]
  @@ fun () ->
  Obs.Counter.incr m_runs;
  Obs.Gauge.set_int g_gates_before raw.Circuit.gates;
  let merged =
    Obs.Trace.span ~scope:"opt" "merge" (fun () ->
        let m = merge ~zero ~one ~equal c in
        Obs.Trace.add_attr "gates_after" (Obs.Trace.I (Array.length m.Circuit.nodes));
        m)
  in
  let circuit = Obs.Trace.span ~scope:"opt" "balance" (fun () -> balance merged) in
  let optimized = Circuit.stats circuit in
  Obs.Gauge.set_int g_gates_after optimized.Circuit.gates;
  Obs.Trace.add_attr "gates_after" (Obs.Trace.I optimized.Circuit.gates);
  { circuit; report = { raw; optimized } }
