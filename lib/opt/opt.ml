(** Optimization pass pipeline over circuits (the "optimize once, consume
    everywhere" layer between {!Engine.Compile} and its consumers).

    Theorem 6 compiles one circuit that serves every semiring; this module
    shrinks that circuit {e before} it is evaluated, maintained
    ({!Circuits.Dyn}), enumerated ({!Fo_enum}) or interpreted in the free
    semiring ({!Provenance}). Every rewrite is safe in {e every} semiring
    containing the circuit's constants, because only the 0/1 identity and
    annihilation axioms plus associativity/commutativity are used:

    - {b fold} — identity folding: drop [zero] summands and [one] factors,
      collapse [Add [||]] to [zero] and [Mul [||]] to [one] (the explicit
      fold-seed convention of {!Circuits.Circuit.eval}), annihilate any
      [Mul] containing a [zero] factor, and alias single-child [Add]/[Mul]
      gates to their child.
    - {b cse} — hash-consing / common-subexpression elimination: merge
      structurally equal [Input], [Const], [Add], [Mul] and [Perm] gates.
      [Add]/[Mul] children are compared as multisets (all semirings here
      are commutative); children are {e never} deduplicated, since
      [a + a ≠ a] outside idempotent semirings.
    - {b dce} — dead-gate elimination: drop every gate outside the output
      cone and compact ids.
    - {b balance} — fan-in rebalancing: split gates wider than
      {!balance_cap} into trees of fan-in at most [balance_cap]. This is
      the only fan-in bound {!Circuits.Dyn} relies on: in General mode an
      input update recomputes O(log n) gates of at most [balance_cap]
      children each.

    Each pass rebuilds the circuit; consumers address it through weight
    keys, and [input_ids] is rebuilt by the builder's own hash-consing,
    so no gate id of the pre-optimization circuit survives or is needed.
    Gate creation order stays a topological order — each pass emits
    children before parents — which {!Circuits.Dyn} relies on (and
    {!Circuits.Circuit.finish} validates). *)

module Circuit = Circuits.Circuit

type pass = Fold | Cse | Dce | Balance

let pass_name = function
  | Fold -> "fold"
  | Cse -> "cse"
  | Dce -> "dce"
  | Balance -> "balance"

(** The default pipeline run by {!Engine.Compile}: identity folding first
    (it creates the duplicate constants cse merges), hash-consing, then a
    sweep of everything the first two passes orphaned, then fan-in caps. *)
let default_passes = [ Fold; Cse; Dce; Balance ]

(** The identity pipeline ([--opt=none]): hand the raw compiler output
    downstream. *)
let none : pass list = []

(** Maximum fan-in [balance] leaves behind. Wide gates become
    [balance_cap]-ary trees of depth ⌈log_cap fan-in⌉, so a General-mode
    update reads at most [balance_cap] children per recomputed gate. *)
let balance_cap = 8

(* Per-pass shrink observables (scope "opt"): the gauges hold the most
   recent run's totals, the per-pass counters accumulate gates removed
   across runs (negative contributions are possible for balance, which
   spends gates to cap fan-in). *)
let m_runs = Obs.counter ~scope:"opt" "runs"
let g_gates_before = Obs.gauge ~scope:"opt" "gates_before"
let g_gates_after = Obs.gauge ~scope:"opt" "gates_after"

let pass_counters =
  List.map
    (fun p ->
      ( pass_name p,
        ( Obs.counter ~scope:"opt" ("pass_" ^ pass_name p ^ "_runs"),
          Obs.counter ~scope:"opt" ("pass_" ^ pass_name p ^ "_gates_removed") ) ))
    [ Fold; Cse; Dce; Balance ]

(** Gate/edge/depth shrink of one pass application, in pipeline order. *)
type delta = {
  dpass : string;
  gates_before : int;
  gates_after : int;
  edges_before : int;
  edges_after : int;
  depth_before : int;
  depth_after : int;
}

(** The per-pass shrink table of one {!run} (recorded in
    {!Engine.Compile.meta} and printed by [sparseq explain]). *)
type report = {
  deltas : delta list;
  r_gates_before : int;
  r_gates_after : int;
  r_edges_before : int;
  r_edges_after : int;
  r_depth_before : int;
  r_depth_after : int;
}

let empty_report (s : Circuit.stats) =
  {
    deltas = [];
    r_gates_before = s.Circuit.gates;
    r_gates_after = s.Circuit.gates;
    r_edges_before = s.Circuit.edges;
    r_edges_after = s.Circuit.edges;
    r_depth_before = s.Circuit.depth;
    r_depth_after = s.Circuit.depth;
  }

let shrink_pct ~before ~after =
  if before = 0 then 0. else 100. *. float_of_int (before - after) /. float_of_int before

let pp_report fmt (r : report) =
  let arrow before after = Printf.sprintf "%d->%d" before after in
  Format.fprintf fmt "@[<v>%-8s %17s %17s %11s %7s@," "pass" "gates" "edges" "depth"
    "shrink";
  List.iter
    (fun d ->
      Format.fprintf fmt "%-8s %17s %17s %11s %6.1f%%@," d.dpass
        (arrow d.gates_before d.gates_after)
        (arrow d.edges_before d.edges_after)
        (arrow d.depth_before d.depth_after)
        (shrink_pct ~before:d.gates_before ~after:d.gates_after))
    r.deltas;
  Format.fprintf fmt "%-8s %17s %17s %11s %6.1f%%@]" "total"
    (arrow r.r_gates_before r.r_gates_after)
    (arrow r.r_edges_before r.r_edges_after)
    (arrow r.r_depth_before r.r_depth_after)
    (shrink_pct ~before:r.r_gates_before ~after:r.r_gates_after)

(** An optimized circuit and the per-pass shrink report. *)
type 'a optimized = { circuit : 'a Circuit.t; report : report }

(* --- fold: identity folding --- *)

(* Value class of a gate, tracked bottom-up so parents can fold without
   re-inspecting children: statically [zero], statically [one], or
   unknown. Only [Const] gates seed the classes — [Input] values are
   unknown by definition and [Perm]/composite gates are never classified
   (their value depends on inputs). *)
type cls = CZero | COne | COther

let fold (type a) ~(zero : a) ~(one : a) ~(equal : a -> a -> bool) (c : a Circuit.t) :
    a Circuit.t =
  let n = Array.length c.Circuit.nodes in
  let b = Circuit.builder () in
  let remap = Array.make n (-1) in
  let cls = Array.make n COther in
  let zero_g = ref (-1) and one_g = ref (-1) in
  let emit_zero () =
    if !zero_g < 0 then zero_g := Circuit.const b zero;
    !zero_g
  in
  let emit_one () =
    if !one_g < 0 then one_g := Circuit.const b one;
    !one_g
  in
  Array.iteri
    (fun id node ->
      let nid, k =
        match node with
        | Circuit.Input key -> (Circuit.input b key, COther)
        | Circuit.Const s ->
            if equal s zero then (emit_zero (), CZero)
            else if equal s one then (emit_one (), COne)
            else (Circuit.const b s, COther)
        | Circuit.Add gs -> (
            (* drop zero summands; Add [||] is the fold-seed zero *)
            match List.filter (fun g -> cls.(g) <> CZero) (Array.to_list gs) with
            | [] -> (emit_zero (), CZero)
            | [ g ] -> (remap.(g), cls.(g))
            | kept ->
                ( Circuit.push b
                    (Circuit.Add (Array.of_list (List.map (fun g -> remap.(g)) kept))),
                  COther ))
        | Circuit.Mul gs ->
            if Array.exists (fun g -> cls.(g) = CZero) gs then (emit_zero (), CZero)
            else (
              (* drop one factors; Mul [||] is the fold-seed one *)
              match List.filter (fun g -> cls.(g) <> COne) (Array.to_list gs) with
              | [] -> (emit_one (), COne)
              | [ g ] -> (remap.(g), cls.(g))
              | kept ->
                  ( Circuit.push b
                      (Circuit.Mul (Array.of_list (List.map (fun g -> remap.(g)) kept))),
                    COther ))
        | Circuit.Perm rows ->
            (Circuit.perm b (Array.map (Array.map (fun g -> remap.(g))) rows), COther)
      in
      remap.(id) <- nid;
      cls.(id) <- k)
    c.Circuit.nodes;
  Circuit.finish b ~output:remap.(c.Circuit.output)

(* --- cse: hash-consing of structurally equal gates --- *)

(* Canonical key of a gate over already-remapped children. Add/Mul
   children are sorted in the key only (commutativity makes the multiset
   canonical); the emitted gate keeps its original child order. [Const]
   gates are matched with the caller's [equal] through a linear table —
   the polymorphic hash cannot be trusted to agree with a custom
   equality, and compiled circuits carry a handful of distinct constants
   at most. *)
type key =
  | KAdd of int list
  | KMul of int list
  | KPerm of int array array

let cse (type a) ~(equal : a -> a -> bool) (c : a Circuit.t) : a Circuit.t =
  let n = Array.length c.Circuit.nodes in
  let b = Circuit.builder () in
  let remap = Array.make n (-1) in
  let tbl : (key, int) Hashtbl.t = Hashtbl.create (max 256 (n / 2)) in
  let consts : (a * int) list ref = ref [] in
  let consed k emit =
    match Hashtbl.find_opt tbl k with
    | Some g -> g
    | None ->
        let g = emit () in
        Hashtbl.replace tbl k g;
        g
  in
  Array.iteri
    (fun id node ->
      remap.(id) <-
        (match node with
        | Circuit.Input key -> Circuit.input b key (* builder hash-conses inputs *)
        | Circuit.Const s -> (
            match List.find_opt (fun (v, _) -> equal v s) !consts with
            | Some (_, g) -> g
            | None ->
                let g = Circuit.const b s in
                consts := (s, g) :: !consts;
                g)
        | Circuit.Add gs ->
            let mapped = Array.map (fun g -> remap.(g)) gs in
            consed
              (KAdd (List.sort compare (Array.to_list mapped)))
              (fun () -> Circuit.push b (Circuit.Add mapped))
        | Circuit.Mul gs ->
            let mapped = Array.map (fun g -> remap.(g)) gs in
            consed
              (KMul (List.sort compare (Array.to_list mapped)))
              (fun () -> Circuit.push b (Circuit.Mul mapped))
        | Circuit.Perm rows ->
            let mapped = Array.map (Array.map (fun g -> remap.(g))) rows in
            consed (KPerm mapped) (fun () -> Circuit.perm b mapped)))
    c.Circuit.nodes;
  Circuit.finish b ~output:remap.(c.Circuit.output)

(* --- dce: dead-gate elimination from the output cone --- *)

let dce (c : 'a Circuit.t) : 'a Circuit.t =
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
  Array.iteri
    (fun id node ->
      if live.(id) then
        remap.(id) <-
          (match node with
          | Circuit.Input key -> Circuit.input b key
          | Circuit.Const s -> Circuit.const b s
          | Circuit.Add gs -> Circuit.push b (Circuit.Add (Array.map (fun g -> remap.(g)) gs))
          | Circuit.Mul gs -> Circuit.push b (Circuit.Mul (Array.map (fun g -> remap.(g)) gs))
          | Circuit.Perm rows ->
              Circuit.perm b (Array.map (Array.map (fun g -> remap.(g))) rows)))
    c.Circuit.nodes;
  Circuit.finish b ~output:remap.(c.Circuit.output)

(* --- balance: cap fan-in by splitting wide gates into trees --- *)

let balance (c : 'a Circuit.t) : 'a Circuit.t =
  let n = Array.length c.Circuit.nodes in
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
  Array.iteri
    (fun id node ->
      remap.(id) <-
        (match node with
        | Circuit.Input key -> Circuit.input b key
        | Circuit.Const s -> Circuit.const b s
        | Circuit.Add gs ->
            tree
              (fun l -> Circuit.push b (Circuit.Add l))
              (Array.map (fun g -> remap.(g)) gs)
        | Circuit.Mul gs ->
            tree
              (fun l -> Circuit.push b (Circuit.Mul l))
              (Array.map (fun g -> remap.(g)) gs)
        | Circuit.Perm rows ->
            Circuit.perm b (Array.map (Array.map (fun g -> remap.(g))) rows)))
    c.Circuit.nodes;
  Circuit.finish b ~output:remap.(c.Circuit.output)

(* --- the pipeline --- *)

(** Run the pipeline. [equal] decides constant equality for identity
    folding and hash-consing; it defaults to structural equality, which
    is correct for every first-order constant type — pass the semiring's
    own [equal] (as {!Engine.Eval.prepare} does) when constants have
    non-canonical representations. The result's value agrees with the
    input circuit's in every commutative semiring where [zero]/[one] are
    the additive/multiplicative identities and [zero] annihilates. *)
let run (type a) ?(passes = default_passes) ~(zero : a) ~(one : a)
    ?(equal : a -> a -> bool = ( = )) (c : a Circuit.t) : a optimized =
  let s0 = Circuit.stats c in
  if passes = [] then { circuit = c; report = empty_report s0 }
  else
    Obs.Trace.span ~scope:"opt" "optimize"
      ~attrs:[ ("gates", Obs.Trace.I s0.Circuit.gates) ]
    @@ fun () ->
    Obs.Counter.incr m_runs;
    Obs.Gauge.set_int g_gates_before s0.Circuit.gates;
    let c, s_final, deltas_rev =
      List.fold_left
        (fun (c, before, acc) pass ->
          let name = pass_name pass in
          Obs.Trace.span ~scope:"opt" name
            ~attrs:[ ("gates_before", Obs.Trace.I before.Circuit.gates) ]
          @@ fun () ->
          let c' =
            match pass with
            | Fold -> fold ~zero ~one ~equal c
            | Cse -> cse ~equal c
            | Dce -> dce c
            | Balance -> balance c
          in
          let after = Circuit.stats c' in
          Obs.Trace.add_attr "gates_after" (Obs.Trace.I after.Circuit.gates);
          let runs, removed = List.assoc name pass_counters in
          Obs.Counter.incr runs;
          Obs.Counter.add removed (before.Circuit.gates - after.Circuit.gates);
          let d =
            {
              dpass = name;
              gates_before = before.Circuit.gates;
              gates_after = after.Circuit.gates;
              edges_before = before.Circuit.edges;
              edges_after = after.Circuit.edges;
              depth_before = before.Circuit.depth;
              depth_after = after.Circuit.depth;
            }
          in
          (c', after, d :: acc))
        (c, s0, [])
        passes
    in
    Obs.Gauge.set_int g_gates_after s_final.Circuit.gates;
    Obs.Trace.add_attr "gates_after" (Obs.Trace.I s_final.Circuit.gates);
    {
      circuit = c;
      report =
        {
          deltas = List.rev deltas_rev;
          r_gates_before = s0.Circuit.gates;
          r_gates_after = s_final.Circuit.gates;
          r_edges_before = s0.Circuit.edges;
          r_edges_after = s_final.Circuit.edges;
          r_depth_before = s0.Circuit.depth;
          r_depth_after = s_final.Circuit.depth;
        };
    }
