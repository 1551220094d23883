(** Dynamic circuit evaluation under input updates (Section 4).

    Three strategies, chosen from the semiring's capabilities:

    - {b General} (Corollary 13): additions and multiplications keep the
      bounded fan-in the optimizer's fan-in cap gives them (at most
      [Opt.balance_cap] children, so a sum over n terms is an O(log n)
      deep tree) and every permanent gate carries a segment-tree
      permanent, so an input update costs O(3ᵏ log n · reach-out) —
      logarithmic, and tight by Proposition 14.
    - {b Ring} (Corollary 17): additions keep a running sum updated by
      x ↦ x − old + new; permanent gates carry power-sum permanents.
      Constant-time updates for circuits of bounded depth and fan-in.
    - {b Finite} (Corollary 20): additions keep per-element counters (the
      counting gates of Lemma 18) and permanent gates carry column-type
      counting permanents. Constant-time updates.

    The strategy is picked automatically: [elements] ⇒ Finite,
    else [neg] ⇒ Ring, else General. *)

type mode = General | Ring | Finite

(* Update reach-out metrics (scope "dyn"): Corollary 13 claims O(3ᵏ log n)
   touched gates per update for general semirings, Corollaries 17/20 claim
   O(1) for rings and finite semirings. [touched_per_update] is the direct
   observable for those bounds; [update_ns] its wall-clock shadow. Batched
   updates are tracked separately: [batch_size] is how many writes arrived
   per {!set_inputs} call and [touched_per_batch] how many gate
   recomputations the single shared wave needed — the ratio against
   [batch_size] × [touched_per_update] is the ancestor-dedup win. *)
let m_creates_general = Obs.counter ~scope:"dyn" "creates_general"
let m_creates_ring = Obs.counter ~scope:"dyn" "creates_ring"
let m_creates_finite = Obs.counter ~scope:"dyn" "creates_finite"
let m_updates = Obs.counter ~scope:"dyn" "updates"
let m_touched = Obs.counter ~scope:"dyn" "touched_gates"
let h_touched = Obs.histogram ~scope:"dyn" "touched_per_update"
let h_update_ns = Obs.histogram ~scope:"dyn" "update_ns"
let m_batches = Obs.counter ~scope:"dyn" "batches"
let h_batch_size = Obs.histogram ~scope:"dyn" "batch_size"
let h_touched_batch = Obs.histogram ~scope:"dyn" "touched_per_batch"
let h_batch_ns = Obs.histogram ~scope:"dyn" "batch_ns"

(* Recovery observables (scope "dyn"): waves unwound by the undo log, and
   full rebuilds that cleared a poisoned structure. *)
let m_rollbacks = Obs.counter ~scope:"dyn" "rollbacks"
let m_repairs = Obs.counter ~scope:"dyn" "repairs"

(* Structural-splice observables: structures replaced after a structural
   recompile, and the gates their builds cost. *)
let m_splices = Obs.counter ~scope:"dyn" "splices"
let m_splice_rebuilt = Obs.counter ~scope:"dyn" "splice_rebuilt_gates"

(** Raised by every read/update once a fault mid-update has left the
    incremental state inconsistent {e and} the rollback that should have
    undone the wave failed too; carries the original failure. The only
    ways out are {!repair} or a fresh {!create}. *)
exception Poisoned of string

(** Raised by {!set_input}/{!set_inputs} when a mid-wave fault was caught
    and the rollback restored the structure to its pre-wave state (every
    gate value bit-for-bit, every touched permanent rebuilt): the update
    did {e not} apply, but the circuit stays healthy and every later read
    or update works; carries the original failure. *)
exception Rolled_back of string

let () =
  Printexc.register_printer (function
    | Poisoned m -> Some ("Circuits.Dyn.Poisoned (" ^ m ^ ")")
    | Rolled_back m -> Some ("Circuits.Dyn.Rolled_back (" ^ m ^ ")")
    | _ -> None)

type 'a perm_state =
  | PSeg of 'a Perm.Segtree.t
  | PRing of 'a Perm.Ring.t
  | PFin of 'a Perm.Finite.t

type 'a aux =
  | ANone
  | APerm of 'a perm_state * int  (** columns count, for slot decoding *)
  | ACount of int array  (** finite-mode addition: per-element counters *)

type 'a t = {
  ops : 'a Semiring.Intf.ops;
  mode : mode;
  n : int;  (** gate count *)
  cc : 'a Compact.t;
      (** the gates in the CSR/struct-of-arrays layout of {!Compact}: flat
          opcode and child arrays, so a recomputation walks no pointers *)
  par_off : int array;  (** n+1 CSR offsets into [par_gate]/[par_slot] *)
  par_gate : int array;  (** parent gate ids, per child contiguous *)
  par_slot : int array;  (** slot of the child in that parent's child order *)
  values : 'a array;  (** current gate values, indexed by gate id *)
  aux : 'a aux array;
  fin_ctx : 'a Perm.Finite.ctx option;
  mutable wave_heap : int array;
      (** binary min-heap of queued gate ids; reused across waves so the
          hot loop allocates nothing *)
  mutable wave_len : int;  (** live prefix of [wave_heap] *)
  wave_in : Bytes.t;
      (** per gate, one byte ({!flagged}): queued in the current wave
          (snapshot saved)? doubles as the stamped-flag for inputs during
          {!set_inputs}' stamp phase, and as the overlay flag of a
          what-if *)
  wave_saved : 'a array;
      (** per gate the wave wrote: value before the wave — or, in a
          what-if, the gate's what-if value (the overlay) *)
  pending : (int * int * 'a) list array;
      (** per permanent gate: (row, col, v) entry writes accumulated since
          its last recomputation, flushed in one {!Perm.Segtree.set_many}
          (resp. Ring/Finite) when the wave reaches the gate *)
  scratch : 'a Perm.Scratch.t;
      (** the buffers a what-if lends to the permanent and counting gates
          it reads *)
  mutable what_if : bool;
      (** a what-if is open: the gates in the undo log read from the
          overlay in [wave_saved], and every write is refused *)
  mutable update_ops : int;  (** gate recomputations since creation (for benches) *)
  obs_sample : Obs.sampler;
      (** single-wave update counter driving the 1-in-64 systematic
          sample of the per-update latency/size histograms and flight
          spans: counters stay exact (cost attribution and the
          cross-checks read those), while the histograms trade
          completeness for keeping the whole telemetry layer inside its
          ≤5% budget on sub-µs updates *)
  mutable cost_log : int list ref option;
      (** when attached ({!set_cost_log}), the touched-gate count of every
          committed wave and every what-if is pushed onto the list — the
          raw material of per-query cost attribution (rolled-back waves
          never commit, so the log agrees with the "dyn" touched counters
          by construction) *)
  mutable undo_log : int array;
      (** the running wave's undo log: every gate it has written, each
          logged once at first contact with its prior value already in
          [wave_saved] (in a what-if: every gate in the overlay); reused
          across waves, reset on commit *)
  mutable undo_len : int;  (** live prefix of [undo_log] *)
  mutable journal : 'a Journal.t option;
      (** when attached, every committed update batch is appended
          ({!replay} itself is excluded; a what-if writes nothing) *)
  mutable poisoned : string option;
      (** set when a mid-propagation exception escaped {e and} the rollback
          failed: gate values may be stale, so every subsequent read raises
          {!Poisoned} until {!repair} rebuilds the state *)
  mutable fault_hook : (int -> unit) option;
      (** test-only fault injection, called with the gate id before each
          recomputation; a raise here simulates a mid-update crash *)
  mutable rollback_fault_hook : (unit -> unit) option;
      (** test-only fault injection at the start of a rollback; a raise
          here simulates a crash during recovery itself (→ poisoned) *)
}

let pick_mode (ops : 'a Semiring.Intf.ops) =
  match (ops.Semiring.Intf.elements, ops.Semiring.Intf.neg) with
  | Some _, _ -> Finite
  | None, Some _ -> Ring
  | None, None -> General

let mode_name = function General -> "general" | Ring -> "ring" | Finite -> "finite"

(* Build derived gate [id] from its children's current values, exactly
   the initial-evaluation semantics: return its value and (re)create its
   auxiliary state — a permanent gate's strategy structure, a Finite-mode
   addition's per-element counters (Lemma 18). The one build path of
   [create], [repair], [splice] and [rollback]. *)
let build_gate (ops : 'a Semiring.Intf.ops) mode fin_ctx (cc : 'a Compact.t)
    (values : 'a array) (aux : 'a aux array) id : 'a =
  let open Semiring.Intf in
  let off = cc.Compact.child_off and ch = cc.Compact.children in
  match cc.Compact.opcode.(id) with
  | 0 (* input *) -> values.(id)
  | 1 (* const *) -> cc.Compact.consts.(cc.Compact.arg.(id))
  | 2 (* add *) ->
      let acc = ref ops.zero in
      for i = off.(id) to off.(id + 1) - 1 do
        acc := ops.add !acc values.(ch.(i))
      done;
      (match fin_ctx with
      | Some ctx ->
          let counts = Array.make (Array.length ctx.Perm.Finite.elems) 0 in
          for i = off.(id) to off.(id + 1) - 1 do
            let e = Perm.Finite.index_of ctx values.(ch.(i)) in
            counts.(e) <- counts.(e) + 1
          done;
          aux.(id) <- ACount counts
      | None -> ());
      !acc
  | 3 (* mul *) ->
      let acc = ref ops.one in
      for i = off.(id) to off.(id + 1) - 1 do
        acc := ops.mul !acc values.(ch.(i))
      done;
      !acc
  | _ (* perm *) -> (
      let m = Compact.perm_matrix cc values id in
      let st =
        match mode with
        | General -> PSeg (Perm.Segtree.create ops m)
        | Ring -> PRing (Perm.Ring.create ops m)
        | Finite -> PFin (Perm.Finite.create ops m)
      in
      aux.(id) <- APerm (st, cc.Compact.perm_cols.(cc.Compact.arg.(id)));
      match st with
      | PSeg s -> Perm.Segtree.perm s
      | PRing s -> Perm.Ring.perm s
      | PFin s -> Perm.Finite.perm s)

(* (Re)compute every derived gate bottom-up from the current input/const
   values: one topological pass. [on_build] fires before each derived
   gate is built — the splice path's fault-injection hook. *)
let init_derived ?(on_build = fun _ -> ()) ops mode fin_ctx (cc : 'a Compact.t)
    (values : 'a array) (aux : 'a aux array) =
  for id = 0 to cc.Compact.n - 1 do
    if cc.Compact.opcode.(id) <> 0 then begin
      on_build id;
      values.(id) <- build_gate ops mode fin_ctx cc values aux id
    end
  done

(* Freeze [c] into the CSR layout, take its parent CSR triple, seed the
   inputs from [valuation] and build every derived gate: the whole of
   [create], and the fresh structure a [splice] builds aside. *)
let build ~on_build (ops : 'a Semiring.Intf.ops) mode fin_ctx (c : 'a Circuit.t)
    (valuation : Circuit.input_key -> 'a) : 'a t =
  let cc = Compact.of_circuit c in
  let n = cc.Compact.n in
  let par_off, par_gate, par_slot = Compact.parents cc in
  let values = Array.make n ops.Semiring.Intf.zero in
  Compact.iter_inputs cc.Compact.opcode cc.Compact.arg cc.Compact.input_keys (fun key id ->
      values.(id) <- valuation key);
  let aux = Array.make n ANone in
  init_derived ~on_build ops mode fin_ctx cc values aux;
  {
    ops;
    mode;
    n;
    cc;
    par_off;
    par_gate;
    par_slot;
    values;
    aux;
    fin_ctx;
    wave_heap = Array.make 16 0;
    wave_len = 0;
    wave_in = Bytes.make n '\000';
    wave_saved = Array.make n ops.Semiring.Intf.zero;
    pending = Array.make n [];
    scratch = Perm.Scratch.create ops.Semiring.Intf.zero;
    what_if = false;
    update_ops = 0;
    obs_sample = Obs.sampler ();
    cost_log = None;
    undo_log = Array.make 64 0;
    undo_len = 0;
    journal = None;
    poisoned = None;
    fault_hook = None;
    rollback_fault_hook = None;
  }

let create ?mode (ops : 'a Semiring.Intf.ops) (c : 'a Circuit.t)
    (valuation : Circuit.input_key -> 'a) : 'a t =
  let mode = match mode with Some m -> m | None -> pick_mode ops in
  Obs.Trace.span ~scope:"dyn" "create"
    ~attrs:
      [
        ("mode", Obs.Trace.S (mode_name mode));
        ("gates", Obs.Trace.I (Array.length c.Circuit.nodes));
      ]
  @@ fun () ->
  let fin_ctx = if mode = Finite then Some (Perm.Finite.make_ctx ops) else None in
  let t = build ~on_build:ignore ops mode fin_ctx c valuation in
  Obs.Counter.incr
    (match mode with
    | General -> m_creates_general
    | Ring -> m_creates_ring
    | Finite -> m_creates_finite);
  t

let poisoned t = t.poisoned
let set_fault_hook t h = t.fault_hook <- h
let set_rollback_fault_hook t h = t.rollback_fault_hook <- h

(** Total gate recomputations since creation; the cumulative counter the
    per-query cost reports are cross-checked against. *)
let update_ops t = t.update_ops

(** Attach (or detach, with [None]) a per-wave cost sink: each committed
    wave appends its touched-gate count. One sink at a time; [Eval]'s cost
    measurement owns the attach/detach bracket. *)
let set_cost_log t sink = t.cost_log <- sink

let num_gates t = t.n

let vget t id = t.values.(id)
let vset t id v = t.values.(id) <- v

let flagged t id = Bytes.get t.wave_in id <> '\000'
let set_flag t id b = Bytes.set t.wave_in id (if b then '\001' else '\000')

(* A gate's value as the running computation sees it: its overlay value
   while a what-if holds it, else its committed value. Outside a what-if
   no read needs the overlay — a committed wave clears a gate's flag
   before it recomputes, so the children it reads are never flagged —
   and the flag is not read. *)
let ov t id = if t.what_if && flagged t id then t.wave_saved.(id) else t.values.(id)

let check_live t =
  match t.poisoned with Some msg -> raise (Poisoned msg) | None -> ()

(* Every write — an update, a splice, a repair, a what-if — starts here:
   the structure must be healthy and no what-if open. *)
let check_write t =
  check_live t;
  if t.what_if then invalid_arg "Dyn: write while a what-if is open (inside with_temp)"

let value t =
  check_live t;
  ov t t.cc.Compact.output

let gate_value t id =
  check_live t;
  ov t id

(* Reusable binary min-heap over gate ids (creation order = topological
   order), stored in the structure so propagation waves allocate nothing.
   Gates are deduplicated through [wave_in] before pushing, so the heap
   never holds duplicates. *)
let heap_push t g =
  let len = t.wave_len in
  if len = Array.length t.wave_heap then begin
    let bigger = Array.make (2 * len) 0 in
    Array.blit t.wave_heap 0 bigger 0 len;
    t.wave_heap <- bigger
  end;
  t.wave_heap.(len) <- g;
  t.wave_len <- len + 1;
  let i = ref len in
  while !i > 0 && t.wave_heap.((!i - 1) / 2) > t.wave_heap.(!i) do
    let p = (!i - 1) / 2 in
    let tmp = t.wave_heap.(p) in
    t.wave_heap.(p) <- t.wave_heap.(!i);
    t.wave_heap.(!i) <- tmp;
    i := p
  done

let heap_pop t =
  let g = t.wave_heap.(0) in
  t.wave_len <- t.wave_len - 1;
  t.wave_heap.(0) <- t.wave_heap.(t.wave_len);
  let i = ref 0 in
  let continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
    let s = ref !i in
    if l < t.wave_len && t.wave_heap.(l) < t.wave_heap.(!s) then s := l;
    if r < t.wave_len && t.wave_heap.(r) < t.wave_heap.(!s) then s := r;
    if !s = !i then continue := false
    else begin
      let tmp = t.wave_heap.(!s) in
      t.wave_heap.(!s) <- t.wave_heap.(!i);
      t.wave_heap.(!i) <- tmp;
      i := !s
    end
  done;
  g

(* --- the per-wave undo log --- *)

(* Log gate [id] as written by the running wave. Callers save its prior
   value in [wave_saved] first, so a logged id always has one. *)
let log_touch t id =
  let len = t.undo_len in
  if len = Array.length t.undo_log then begin
    let bigger = Array.make (2 * len) 0 in
    Array.blit t.undo_log 0 bigger 0 len;
    t.undo_log <- bigger
  end;
  t.undo_log.(len) <- id;
  t.undo_len <- len + 1

(* Unwind the running wave. Every gate it wrote gets its pre-wave value
   back from [wave_saved], with the between-waves invariants ([wave_in]
   false, [pending] empty); then the auxiliary state of every touched
   permanent and counting gate — a function of its children's values —
   is rebuilt from the restored values, which also covers a flush a
   fault cut short. The saved value stays authoritative over the rebuilt
   one, and the fault hook does not fire. Raises only if the rebuild
   itself faults — the caller then falls back to poisoning. *)
let rollback t =
  (match t.rollback_fault_hook with Some h -> h () | None -> ());
  for i = 0 to t.undo_len - 1 do
    let id = t.undo_log.(i) in
    vset t id t.wave_saved.(id);
    set_flag t id false;
    t.pending.(id) <- []
  done;
  for i = 0 to t.undo_len - 1 do
    let id = t.undo_log.(i) in
    match t.aux.(id) with
    | APerm _ | ACount _ -> ignore (build_gate t.ops t.mode t.fin_ctx t.cc t.values t.aux id)
    | ANone -> ()
  done;
  t.undo_len <- 0;
  t.wave_len <- 0

(* A wave committed: forget the undo log and journal the batch. *)
let commit_wave t (writes : (Circuit.input_key * 'a) list) =
  t.undo_len <- 0;
  match t.journal with None -> () | Some j -> Journal.append j writes

(* A wave or a splice faulted: [undo] restores the pre-fault state. On
   success the structure is healthy again and the caller's operation
   reports [Rolled_back]; if [undo] itself raises, the structure is truly
   inconsistent — poison it as the last resort (only {!repair} clears it).
   The flight recorder fires in both cases, tagged with the outcome and
   [what] faulted ("wave" or "splice"). *)
let fault t ~what ~undo (e : exn) : 'b =
  match undo () with
  | () ->
      Obs.Counter.incr m_rollbacks;
      Obs.Trace.dump_flight
        ~reason:
          (Printf.sprintf "Circuits.Dyn rolled_back mid-%s fault: %s" what
             (Printexc.to_string e))
        ();
      raise (Rolled_back (Printexc.to_string e))
  | exception re ->
      t.poisoned <- Some (Printexc.to_string e);
      Obs.Trace.dump_flight
        ~reason:
          (Printf.sprintf "Circuits.Dyn poisoned mid-%s: %s (rollback failed: %s)" what
             (Printexc.to_string e) (Printexc.to_string re))
        ();
      raise e

let fault_wave t e = fault t ~what:"wave" ~undo:(fun () -> rollback t) e

(* Is this gate an addition? The only kind query [notify] needs beyond
   what the aux array already encodes (APerm ⇔ Perm, ACount ⇔ Finite-mode
   Add): Ring mode must not apply the add-delta to Mul gates. *)
let gate_is_add t id = t.cc.Compact.opcode.(id) = 2

(* Apply the effect of a child's value change on a parent's auxiliary
   state; cheap bookkeeping only, no recomputation. Permanent gates only
   accumulate the entry write — the wave flushes all of a gate's pending
   writes through one [set_many] (a what-if: reads them through
   [perm_with]) when it recomputes the gate, so a batch touching many
   columns pays each leaf-to-root path segment once. A Ring-mode
   addition takes the delta into its committed value (a what-if: into
   its overlay value, which first contact set to the committed one). A
   what-if leaves counting gates alone: they read their children's
   deltas when popped. The parent was logged at first contact; a
   rollback rebuilds whatever this changes. *)
let notify t parent slot ~old_v ~new_v =
  let open Semiring.Intf in
  match t.aux.(parent) with
  | APerm (_, ncols) ->
      let row = slot / ncols and col = slot mod ncols in
      t.pending.(parent) <- (row, col, new_v) :: t.pending.(parent)
  | ACount counts ->
      if not t.what_if then begin
        let ctx = Option.get t.fin_ctx in
        let oi = Perm.Finite.index_of ctx old_v and ni = Perm.Finite.index_of ctx new_v in
        counts.(oi) <- counts.(oi) - 1;
        counts.(ni) <- counts.(ni) + 1
      end
  | ANone ->
      if t.mode = Ring && gate_is_add t parent then begin
        let neg = Option.get t.ops.neg in
        let dst = if t.what_if then t.wave_saved else t.values in
        dst.(parent) <- t.ops.add (t.ops.add dst.(parent) (neg old_v)) new_v
      end

(* Counting gate readout: Σ_e count_e · e via the lasso (Lemma 18). *)
let count_value t counts =
  let open Semiring.Intf in
  let ctx = Option.get t.fin_ctx in
  let acc = ref t.ops.zero in
  for i = 0 to Array.length ctx.Perm.Finite.elems - 1 do
    if counts.(i) > 0 then
      acc := t.ops.add !acc (Perm.Finite.scale ctx counts.(i) ctx.Perm.Finite.elems.(i))
  done;
  !acc

(* Flush a permanent gate's accumulated pending entry writes through one
   batched [set_many], then read the permanent. A flush a fault cuts
   short is undone by the rollback's rebuild of the gate. *)
let perm_value t id st =
  (match t.pending.(id) with
  | [] -> ()
  | pend -> (
      t.pending.(id) <- [];
      (* accumulated newest-first; sequential order = reverse (a single
         write, the common case of a one-input wave, is its own reverse) *)
      let writes = match pend with [ _ ] -> pend | _ -> List.rev pend in
      match st with
      | PSeg s -> Perm.Segtree.set_many s writes
      | PRing s -> Perm.Ring.set_many s writes
      | PFin s -> Perm.Finite.set_many s writes));
  match st with
  | PSeg s -> Perm.Segtree.perm s
  | PRing s -> Perm.Ring.perm s
  | PFin s -> Perm.Finite.perm s

(* A what-if reads a permanent gate through its pending entry writes
   without flushing them: the strategy's [perm_with] leaves its state
   untouched. *)
let perm_what_if t id st =
  let writes = t.pending.(id) in
  t.pending.(id) <- [];
  match st with
  | PSeg s -> Perm.Segtree.perm_with s t.scratch writes
  | PRing s -> Perm.Ring.perm_with s t.scratch writes
  | PFin s -> Perm.Finite.perm_with s t.scratch writes

(* A what-if reads a counting gate through a copy of its counters in the
   scratch buffer, moved by every child whose overlay value differs from
   its committed one. That scans the gate's children, at most
   [Opt.balance_cap] of them unless the optimizer was bypassed. *)
let counts_what_if t id counts =
  let ctx = Option.get t.fin_ctx in
  let ne = Array.length counts in
  let buf = Perm.Scratch.ints t.scratch ne in
  Array.blit counts 0 buf 0 ne;
  let off = t.cc.Compact.child_off and ch = t.cc.Compact.children in
  for i = off.(id) to off.(id + 1) - 1 do
    let c = ch.(i) in
    if flagged t c && not (t.ops.Semiring.Intf.equal (vget t c) t.wave_saved.(c)) then begin
      let oi = Perm.Finite.index_of ctx (vget t c)
      and ni = Perm.Finite.index_of ctx t.wave_saved.(c) in
      buf.(oi) <- buf.(oi) - 1;
      buf.(ni) <- buf.(ni) + 1
    end
  done;
  buf

(* Recompute a gate's value from its children/auxiliary state — in a
   what-if, from the overlay, writing no auxiliary state. *)
let recompute t id =
  let open Semiring.Intf in
  (match t.fault_hook with Some h -> h id | None -> ());
  t.update_ops <- t.update_ops + 1;
  let cc = t.cc in
  match cc.Compact.opcode.(id) with
  | 0 | 1 -> vget t id
  | 4 -> (
      match t.aux.(id) with
      | APerm (st, _) -> if t.what_if then perm_what_if t id st else perm_value t id st
      | _ -> invalid_arg "Dyn: permanent gate without state")
  | opc -> (
      match t.aux.(id) with
      | ACount counts ->
          count_value t (if t.what_if then counts_what_if t id counts else counts)
      | _ when opc = 2 && t.mode = Ring -> ov t id (* maintained by deltas *)
      | _ ->
          let off = cc.Compact.child_off and ch = cc.Compact.children in
          if opc = 2 then begin
            let acc = ref t.ops.zero in
            for i = off.(id) to off.(id + 1) - 1 do
              acc := t.ops.add !acc (ov t ch.(i))
            done;
            !acc
          end
          else begin
            let acc = ref t.ops.one in
            for i = off.(id) to off.(id + 1) - 1 do
              acc := t.ops.mul !acc (ov t ch.(i))
            done;
            !acc
          end)

(* Queue one parent for recomputation (saving its pre-wave value on first
   contact) and push the child's delta into its auxiliary state. *)
let enqueue_one t p slot ~old_v ~new_v =
  if not (flagged t p) then begin
    t.wave_saved.(p) <- vget t p;
    log_touch t p;
    set_flag t p true;
    heap_push t p
  end;
  notify t p slot ~old_v ~new_v

(* Queue [g]'s parents for recomputation: a flat scan of its CSR
   parent run. *)
let enqueue_parents t g ~old_v ~new_v =
  for i = t.par_off.(g) to t.par_off.(g + 1) - 1 do
    enqueue_one t t.par_gate.(i) t.par_slot.(i) ~old_v ~new_v
  done

(* Drain the heap in topological (gate-id) order. Children always have
   smaller ids than parents, so when a gate is popped every queued child
   has already settled — each touched gate is recomputed exactly once per
   wave no matter how many dirty inputs reach it. A committed wave writes
   the new value and keeps the old one in [wave_saved]; a what-if keeps
   the new value in [wave_saved] and the gate flagged, so its parents
   read it from the overlay. *)
let run_wave t =
  while t.wave_len > 0 do
    let g = heap_pop t in
    if t.what_if then begin
      let new_g = recompute t g in
      t.wave_saved.(g) <- new_g;
      let old_g = vget t g in
      if not (t.ops.Semiring.Intf.equal old_g new_g) then
        enqueue_parents t g ~old_v:old_g ~new_v:new_g
    end
    else begin
      set_flag t g false;
      let old_g = t.wave_saved.(g) in
      let new_g = recompute t g in
      vset t g new_g;
      if not (t.ops.Semiring.Intf.equal old_g new_g) then
        enqueue_parents t g ~old_v:old_g ~new_v:new_g
    end
  done

(** Update one input weight; propagates along all ancestor paths in
    topological order. The wave is transactional: if anything raises
    mid-propagation (crash, fault injection) the rollback restores the
    structure to its pre-wave state and {!Rolled_back} is
    raised — the circuit stays healthy and retryable. Only when the
    rollback itself faults is the structure poisoned: gate values may then
    be stale, so rather than silently returning corrupt answers every
    later read or update raises {!Poisoned} until {!repair}. *)
let set_input t (key : Circuit.input_key) v =
  check_write t;
  let id = Compact.input_gate t.cc key in
  if id < 0 then invalid_arg "Dyn.set_input: unknown input (weight symbol, tuple)";
  let old_v = vget t id in
  if not (t.ops.Semiring.Intf.equal old_v v) then begin
    let instrumented = Obs.is_enabled () in
    (* {!Obs.sampler}: the exact counters carry the totals, while the
       latency/size histograms and the flight context see every 64th
       wave (and every wave while a trace is being recorded) *)
    let sampled = Obs.sampled t.obs_sample in
    let t0 = if sampled then Obs.now_ns () else 0. in
    let ops0 = t.update_ops in
    (try
      (* The wave span lands in the flight recorder during unwinding,
         before the recovery handler below fires — span_hot
         materializes the span on a fault even when this wave was not
         sampled, so a post-mortem dump always contains the fatal
         wave. *)
      Obs.Trace.span_hot ~force:sampled ~scope:"dyn" "update" (fun () ->
          t.wave_saved.(id) <- old_v;
          log_touch t id;
          vset t id v;
          enqueue_parents t id ~old_v ~new_v:v;
          run_wave t;
          (* only a live span can carry the attribute; skipping the
             call on the bare path saves a boxed attr per wave *)
          if sampled || Obs.Trace.is_recording () then
            Obs.Trace.add_attr "touched" (Obs.Trace.I (t.update_ops - ops0)))
    with e -> fault_wave t e);
    commit_wave t [ (key, v) ];
    (match t.cost_log with
    | Some sink -> sink := (t.update_ops - ops0) :: !sink
    | None -> ());
    if instrumented then begin
      let touched = t.update_ops - ops0 in
      Obs.Counter.incr m_updates;
      Obs.Counter.add m_touched touched;
      if sampled then begin
        Obs.Histogram.observe h_touched (float_of_int touched);
        Obs.Histogram.observe h_update_ns (Obs.elapsed_ns t0)
      end
    end
  end

(** Batched update: stamp every dirty input first, then run a {e single}
    topological propagation wave. A gate reachable from several dirty
    inputs is recomputed once per wave instead of once per constituent
    update, so the per-touched-gate costs of Corollaries 13/17/20 are
    unchanged while shared ancestors are deduplicated. Semantically
    equivalent to applying the assignments with {!set_input} left to right
    (later writes to the same input win). Unknown keys are rejected before
    any mutation; an exception mid-wave rolls the whole batch back (or, if
    the rollback itself faults, poisons the structure) exactly like
    {!set_input}. *)
let set_inputs t (assignments : (Circuit.input_key * 'a) list) =
  check_write t;
  match assignments with
  | [] -> ()
  | [ (key, v) ] -> set_input t key v
  | _ ->
      let resolved =
        List.map
          (fun (key, v) ->
            let id = Compact.input_gate t.cc key in
            if id < 0 then invalid_arg "Dyn.set_inputs: unknown input (weight symbol, tuple)";
            (id, v))
          assignments
      in
      let instrumented = Obs.is_enabled () in
      let t0 = if instrumented then Obs.now_ns () else 0. in
      let ops0 = t.update_ops in
      let dirty = ref 0 in
      (try
        Obs.Trace.span ~scope:"dyn" "batch"
          ~attrs:[ ("writes", Obs.Trace.I (List.length assignments)) ]
          (fun () ->
            (* Stamp phase: apply every write, remembering each input's
               pre-batch value on first contact ([wave_in] doubles as the
               stamped flag — inputs have no children, so they are never
               heap-queued and the flag cannot collide with the wave's use). *)
            let stamped =
              List.filter_map
                (fun (id, v) ->
                  if flagged t id then begin
                    (* re-stamped input: [wave_saved] already holds its
                       pre-batch value *)
                    vset t id v;
                    None
                  end
                  else if t.ops.Semiring.Intf.equal (vget t id) v then None
                  else begin
                    t.wave_saved.(id) <- vget t id;
                    log_touch t id;
                    set_flag t id true;
                    vset t id v;
                    Some id
                  end)
                resolved
            in
            (* Propagation phase: one shared wave over every net change. *)
            List.iter
              (fun id ->
                set_flag t id false;
                let old_v = t.wave_saved.(id) and new_v = vget t id in
                if not (t.ops.Semiring.Intf.equal old_v new_v) then begin
                  incr dirty;
                  enqueue_parents t id ~old_v ~new_v
                end)
              stamped;
            run_wave t;
            Obs.Trace.add_attr "dirty" (Obs.Trace.I !dirty);
            Obs.Trace.add_attr "touched" (Obs.Trace.I (t.update_ops - ops0)))
      with e -> fault_wave t e);
      commit_wave t assignments;
      (match t.cost_log with
      | Some sink -> sink := (t.update_ops - ops0) :: !sink
      | None -> ());
      if instrumented then begin
        let touched = t.update_ops - ops0 in
        Obs.Counter.incr m_batches;
        Obs.Counter.add m_updates !dirty;
        Obs.Counter.add m_touched touched;
        Obs.Histogram.observe h_batch_size (float_of_int (List.length assignments));
        Obs.Histogram.observe h_touched_batch (float_of_int touched);
        Obs.Histogram.observe h_batch_ns (Obs.elapsed_ns t0)
      end

(** Current value of an input gate (its what-if value inside
    {!with_temp}). *)
let input_value t key =
  let id = Compact.input_gate t.cc key in
  if id < 0 then None else Some (ov t id)

let has_input t key = Compact.input_gate t.cc key >= 0

(* --- the what-if wave --- *)

(* Close the open what-if: unflag every overlay gate. A finished wave
   has popped every gate it queued, so only a faulted one leaves a queue
   and pending writes behind, and [faulted] drops them. Writes no
   committed state. *)
let close_what_if ?(faulted = false) t =
  for i = 0 to t.undo_len - 1 do
    let id = t.undo_log.(i) in
    set_flag t id false;
    if faulted then t.pending.(id) <- []
  done;
  t.undo_len <- 0;
  t.wave_len <- 0;
  t.what_if <- false

(* Stamp the what-if values of the known inputs among [assignments] into
   the overlay; a later write to the same input wins. *)
let rec stamp t = function
  | [] -> ()
  | (key, v) :: rest ->
      let id = Compact.input_gate t.cc key in
      if id < 0 then ()
      else if flagged t id then t.wave_saved.(id) <- v
      else if not (t.ops.Semiring.Intf.equal (vget t id) v) then begin
        set_flag t id true;
        t.wave_saved.(id) <- v;
        log_touch t id
      end;
      stamp t rest

(* Open a what-if: propagate [assignments] (keys the circuit does not
   read are ignored) through their cone into the overlay — the wave
   scratch, since a what-if never runs inside a committed wave — reading
   every untouched child from the committed values. The journal, the
   undo log's committed use, [values] and every permanent's state are
   never written. A fault closes the overlay and raises {!Rolled_back}
   with the structure untouched. The wave's gates go to [update_ops],
   the cost sink and "dyn" [touched_gates] like a committed wave's, but
   not to "dyn" [updates]. *)
let open_what_if t (assignments : (Circuit.input_key * 'a) list) =
  check_write t;
  t.what_if <- true;
  let ops0 = t.update_ops and dirty = ref false in
  (try
     stamp t assignments;
     for i = 0 to t.undo_len - 1 do
       let id = t.undo_log.(i) in
       let old_v = vget t id and new_v = t.wave_saved.(id) in
       if not (t.ops.Semiring.Intf.equal old_v new_v) then begin
         dirty := true;
         enqueue_parents t id ~old_v ~new_v
       end
     done;
     run_wave t
   with e -> fault t ~what:"what-if" ~undo:(fun () -> close_what_if ~faulted:true t) e);
  if !dirty then begin
    let touched = t.update_ops - ops0 in
    (match t.cost_log with Some sink -> sink := touched :: !sink | None -> ());
    if Obs.is_enabled () then Obs.Counter.add m_touched touched
  end

(** The output's value were [assignments] applied — the free-variable
    query of Theorem 8 — computed by one read-only what-if wave: nothing
    is written, so nothing needs restoring. Keys the circuit does not
    read are ignored, and a later write to the same key wins. A fault
    mid-wave raises {!Rolled_back} with the structure untouched. *)
let value_with t (assignments : (Circuit.input_key * 'a) list) : 'a =
  open_what_if t assignments;
  let v = ov t t.cc.Compact.output in
  close_what_if t;
  v

(** Run [f] with [assignments] applied as a what-if: {!value},
    {!gate_value} and {!input_value} read the what-if values inside [f],
    the committed state is never written, and the overlay closes on every
    exit of [f]. A write attempted inside [f] raises [Invalid_argument].
    See {!value_with}. *)
let with_temp t (assignments : (Circuit.input_key * 'a) list) (f : unit -> 'b) : 'b =
  open_what_if t assignments;
  match f () with
  | r ->
      close_what_if t;
      r
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      close_what_if t;
      Printexc.raise_with_backtrace e bt

(* --- recovery and durability --- *)

(** Rebuild every derived gate value, auxiliary structure and pending
    buffer from the currently stored input values in one full-eval pass —
    the self-healing big hammer. Clears the poison (and any half-applied
    wave state), so a structure whose rollback failed becomes consistent
    with its inputs again; the cost is the same as the initial build. Safe
    (and idempotent) on a healthy structure. *)
let repair t =
  Obs.Trace.span ~scope:"dyn" "repair"
    ~attrs:[ ("gates", Obs.Trace.I t.n) ]
  @@ fun () ->
  if t.what_if then invalid_arg "Dyn.repair: a what-if is open (inside with_temp)";
  for i = 0 to t.n - 1 do
    set_flag t i false;
    t.pending.(i) <- []
  done;
  t.wave_len <- 0;
  t.undo_len <- 0;
  init_derived t.ops t.mode t.fin_ctx t.cc t.values t.aux;
  t.poisoned <- None;
  Obs.Counter.incr m_repairs

(* --- structural splice --- *)

(** Replace the compiled circuit by [c] — the output of a structural
    recompile, localized or not. The new structure is built {e aside},
    from scratch: [c] is frozen, every input is seeded from [valuation]
    and every derived gate is built bottom-up exactly as in {!create},
    with the fault-injection hook firing before each one.

    The old structure is never mutated, so a mid-build fault discards
    the half-built structure and raises {!Rolled_back} with [t] intact —
    or, if the rollback-fault hook raises too, poisons [t] and re-raises:
    the three outcomes of a weight wave.

    On success the returned structure supersedes [t]. It inherits the
    journal, the cost sink, the sampling tick and the fault hooks; its
    gate odometer continues [t]'s, and the build's n gates are charged
    to it, to the cost sink and to "dyn" [touched_gates], so
    Σ cost_log = Δ update_ops = Δ touched_gates holds across structural
    updates too. [t] is poisoned: reads raise {!Poisoned}. *)
let splice (t : 'a t) (c : 'a Circuit.t) (valuation : Circuit.input_key -> 'a) : 'a t =
  check_write t;
  Obs.Trace.span ~scope:"dyn" "splice"
    ~attrs:
      [
        ("old_gates", Obs.Trace.I t.n);
        ("new_gates", Obs.Trace.I (Array.length c.Circuit.nodes));
      ]
  @@ fun () ->
  let on_build id = match t.fault_hook with Some h -> h id | None -> () in
  let fresh =
    match build ~on_build t.ops t.mode t.fin_ctx c valuation with
    | fresh -> fresh
    | exception e ->
        (* [t] was never touched: discarding the half-built structure IS
           the rollback. The hooks still get their say so the chaos
           battery can drive all three outcomes. *)
        fault t ~what:"splice"
          ~undo:(fun () -> match t.rollback_fault_hook with Some h -> h () | None -> ())
          e
  in
  let n = fresh.n in
  (match t.cost_log with Some sink -> sink := n :: !sink | None -> ());
  Obs.Counter.add m_touched n;
  Obs.Counter.incr m_splices;
  Obs.Counter.add m_splice_rebuilt n;
  t.poisoned <- Some "superseded by a splice; use the spliced structure";
  {
    fresh with
    update_ops = t.update_ops + n;
    obs_sample = t.obs_sample;
    cost_log = t.cost_log;
    journal = t.journal;
    fault_hook = t.fault_hook;
    rollback_fault_hook = t.rollback_fault_hook;
  }

(** Attach (or return the already-attached) update journal: from now on
    every committed {!set_input}/{!set_inputs} batch is appended. *)
let enable_journal t =
  match t.journal with
  | Some j -> j
  | None ->
      let j = Journal.create () in
      t.journal <- Some j;
      j

let journal t = t.journal

(** Attach/detach a specific journal ({!splice} inherits the attached
    one; [Engine.Eval.replay] suspends it here). *)
let set_journal t j = t.journal <- j

(** Re-apply a journal's committed batches in order. Run against a fresh
    {!create} from the same pre-journal valuation this reconstructs the
    exact served state (gate values, aux state, pending buffers) the
    journaling structure reached — checksums are verified first, and the
    structure's own journal is suspended while replaying so the batches
    are not re-appended. A bare [Dyn] cannot change its own circuit, so a
    structural record is rejected as [Bad_input] rather than silently
    replaying a wrong state: journals with structural ops replay through
    [Engine.Eval.replay]. *)
let replay t (j : 'a Journal.t) =
  Obs.Trace.span ~scope:"dyn" "replay"
    ~attrs:[ ("batches", Obs.Trace.I (Journal.length j)) ]
  @@ fun () ->
  (match Journal.verify j with
  | Some seq -> Robust.bad_input "Dyn.replay: journal batch %d fails its checksum" seq
  | None -> ());
  let journal = t.journal in
  t.journal <- None;
  Fun.protect
    ~finally:(fun () -> t.journal <- journal)
    (fun () ->
      List.iter
        (fun b ->
          match Journal.structural b with
          | Some _ ->
              Robust.bad_input
                "Dyn.replay: journal holds structural ops; replay through Engine.Eval"
          | None -> set_inputs t (Journal.writes b))
        (Journal.batches j))
