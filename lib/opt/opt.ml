(** The circuit optimizer (the "optimize once, consume everywhere" layer
    between {!Engine.Compile} and its consumers).

    Theorem 6 compiles one circuit that serves every semiring; this module
    shrinks that circuit {e before} it is evaluated, maintained
    ({!Circuits.Dyn}), enumerated ({!Fo_enum}) or interpreted in the free
    semiring ({!Provenance}). Every rewrite is safe in {e every}
    commutative semiring, because only associativity and commutativity
    are used — no 0/1 axiom, so constants are kept as they are. One
    forward sweep does it:

    - it visits only the output cone of the input circuit
      ({!Circuits.Circuit.live}), so dead gates are never emitted;
    - it merges every live gate with a structurally equal earlier one:
      [Add]/[Mul] children are compared as multisets (all semirings here
      are commutative) and are {e never} deduplicated, since [a + a ≠ a]
      outside idempotent semirings; [Perm] rows are compared in order;
      constants are matched with the caller's [equal];
    - it emits every [Add]/[Mul] wider than {!balance_cap} straight into
      a tree of fan-in at most [balance_cap]. This is the only fan-in
      bound {!Circuits.Dyn} relies on: in General mode an input update
      recomputes O(log n) gates of at most [balance_cap] children each.

    Merging drops no gate's reader, so the output cone marked before the
    sweep is exactly the cone of the result: it holds no dead gate.

    The sweep rebuilds the circuit; consumers address it through weight
    keys, which the builder's own hash-consing keeps to one input gate
    each, so no gate id of the pre-optimization circuit survives or is
    needed.
    Gate creation order stays a topological order — children are emitted
    before parents — which {!Circuits.Dyn} relies on (and
    {!Circuits.Circuit.finish} validates). *)

module Circuit = Circuits.Circuit

(** Whether {!Engine.Compile} optimizes: {!default} runs the sweep,
    {!none} ([--opt=none]) hands the raw compiler output downstream. *)
type setting = bool

let default : setting = true
let none : setting = false

(** Maximum fan-in the sweep leaves behind. Wide gates become
    [balance_cap]-ary trees of depth ⌈log_cap fan-in⌉, so a General-mode
    update reads at most [balance_cap] children per recomputed gate. *)
let balance_cap = 8

(* Shrink observables (scope "opt"): the gauges hold the most recent
   run's gate counts. *)
let m_runs = Obs.counter ~scope:"opt" "runs"
let g_gates_before = Obs.gauge ~scope:"opt" "gates_before"
let g_gates_after = Obs.gauge ~scope:"opt" "gates_after"

(** Gate counts before and after one {!run} (recorded in
    {!Engine.Compile.meta}). *)
type report = { raw : int; optimized : int }

(** An optimized circuit and its shrink report. *)
type 'a optimized = { circuit : 'a Circuit.t; report : report }

(** The raw circuit, handed downstream as it is ({!none}). *)
let unoptimized c =
  let n = Array.length c.Circuit.nodes in
  { circuit = c; report = { raw = n; optimized = n } }

(* Canonical key of a gate over already-emitted children: a tag (0 Add,
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

(** Optimize in one sweep (see the module header). [equal] decides
    constant equality for hash-consing; it defaults to structural
    equality, which is correct for every first-order constant type — pass
    the semiring's own [equal] (as {!Engine.Eval.prepare} does) when
    constants have non-canonical representations. The result's value
    agrees with the input circuit's in every commutative semiring.
    [~zero] and [~one] are accepted and unused: no rewrite needs the
    identities; they go when their last callers, the benchmark's, do. *)
let run (type a) ~zero:(_ : a) ~one:(_ : a) ?(equal : a -> a -> bool = ( = ))
    (c : a Circuit.t) : a optimized =
  let n = Array.length c.Circuit.nodes in
  Obs.Trace.span ~scope:"opt" "optimize" ~attrs:[ ("gates", Obs.Trace.I n) ] @@ fun () ->
  Obs.Counter.incr m_runs;
  Obs.Gauge.set_int g_gates_before n;
  let live = Circuit.live c in
  let b = Circuit.builder () in
  let remap = Array.make n (-1) in
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
  (* Chunk [gs] into groups of at most [balance_cap], emit a gate per
     group, recurse on the group gates: a [balance_cap]-ary tree of depth
     ⌈log_cap fan-in⌉, children emitted before parents. *)
  let rec tree mk gs =
    let len = Array.length gs in
    if len <= balance_cap then Circuit.push b (mk gs)
    else
      tree mk
        (Array.init
           ((len + balance_cap - 1) / balance_cap)
           (fun i ->
             let lo = i * balance_cap in
             Circuit.push b (mk (Array.sub gs lo (min balance_cap (len - lo))))))
  in
  let mapped gs = Array.map (fun g -> remap.(g)) gs in
  let commutative tag mk gs =
    let gs = mapped gs in
    let sorted = Array.copy gs in
    Array.sort Int.compare sorted;
    consed (Array.append [| tag |] sorted) (fun () -> tree mk gs)
  in
  Array.iteri
    (fun id node ->
      if live.(id) then
        remap.(id) <-
          (match node with
          | Circuit.Input key -> Circuit.input b key (* builder hash-conses inputs *)
          | Circuit.Const s -> const s
          | Circuit.Add gs -> commutative 0 (fun l -> Circuit.Add l) gs
          | Circuit.Mul gs -> commutative 1 (fun l -> Circuit.Mul l) gs
          | Circuit.Perm rows ->
              let rows = Array.map mapped rows in
              let key = Array.concat ([| 2; Array.length rows |] :: Array.to_list rows) in
              consed key (fun () -> Circuit.perm b rows)))
    c.Circuit.nodes;
  let circuit = Circuit.finish b ~output:remap.(c.Circuit.output) in
  let optimized = Array.length circuit.Circuit.nodes in
  Obs.Gauge.set_int g_gates_after optimized;
  Obs.Trace.add_attr "gates_after" (Obs.Trace.I optimized);
  { circuit; report = { raw = n; optimized } }
