(** Evaluation of circuits in the free semiring with iterator-represented
    elements (Theorem 22).

    A circuit is enumerated through frames, one mutable record per live
    cursor: an addition is a sum over its parts, a multiplication an
    odometer over its factors (the first slowest), and a permanent gate
    the constant-delay odometer of Lemma 23 ({!Perm.Enum_perm}), whose
    row entries are frames (a one-row permanent is the sum of its row; a
    one-child sum is its child). No frame multiplies: in the free
    semiring a product of monomials is their multiset union, so the
    monomial a run stands at is the union of its live leaves' current
    monomials, read by walking the live frames ({!iter_value}).

    The prepared query holds its circuit frozen once into the flat
    arrays of {!Circuits.Compact}, the form [Dyn] serves: the index and
    the frames read opcodes, child ranges and permanent shapes from them,
    never a boxed gate.

    Enumeration reads a maintained emptiness index: every gate's boolean
    projection (Lemma 23's h: is its value non-empty?), each input's
    current monomials resolved into an array by input-pool slot, and the
    circuit's parent lists ({!Circuits.Compact.parents}). The first
    [start] builds the index in one bottom-up pass; after that an update
    only records its input key and the new value, and the next [start]
    drains the records newest first: it finds each key's input gate
    through the circuit's packed key index (the one [Dyn] resolves keys
    through), gives the gate its last recorded value, and walks upward
    from each input whose emptiness flipped, stopping at the first parent
    whose h is unchanged. An enumeration then aims one root frame at the
    output.

    A frame is re-aimed in place at each gate it is to walk ({!aim}),
    never rebuilt: a sum keeps one part frame and re-aims it at each
    part it enters, skipping empty parts without descending; a product
    aims its factor frames when it is aimed; a permanent re-aims a row's
    frame at each column the row takes. Child slots and a permanent's
    arrays grow to the widest gate met so far and are then reused, so a
    running enumeration holds only its live path, and a pass after the
    first allocates no frame: an answer costs its movements. So the work
    per [start] is the changed inputs and the gates whose emptiness they
    flip, plus the frames the enumeration actually moves; a frame entered
    again (under a product's later factors, or under a permanent's later
    rows) is re-aimed again, a permanent's column classes included.

    Gates may be shared between parents (the optimizer's hash-consing
    makes sharing common even for non-leaf gates), but every reference
    is walked by its own frame, so sharing in the circuit never puts one
    frame in two simultaneously-active positions.

    Constants must be the booleans 0 and 1 of the compilation (false ↦
    empty, true ↦ the single empty monomial) — exactly what
    [Engine.Compile] emits when compiling with [~zero:false ~one:true]. *)

(* Cursors entered during enumeration: one per non-leaf gate reference a
   frame is aimed at, so its growth per answer measures the lazy build. *)
let m_cursors_built = Obs.counter ~scope:"provenance" "cursors_built"

(* Parents whose h the index refresh recomputes: the work an update costs
   the next enumerator. *)
let m_index_recomputed = Obs.counter ~scope:"provenance" "index_gates_recomputed"

(** The emptiness index of Lemma 23, kept across updates. *)
type 'g index = {
  nonempty : Bytes.t;
      (** per gate, bit 0 is h (set iff its value is non-empty); bit 1
          marks an input gate the running drain has already given its
          last value *)
  mutable par_off : int array;
      (** gate [g]'s parents are [par_gate.(par_off.(g))] up to
          [par_gate.(par_off.(g + 1) - 1)], ascending, one per child
          reference ({!Circuits.Compact.parents}); both arrays stay empty
          until an update first flips an input, so an enumeration without
          updates never builds them *)
  mutable par_gate : int array;
  leaves : 'g Free.mono array array;
      (** each input's current monomials, by input-pool slot (the [arg]
          of its gate) *)
  pending_w : string array;
  pending_tuple : int list array;
  pending_leaf : 'g Free.mono array array;
      (** input keys updated since the last refresh and the value each
          was given, one slot per input gate *)
  mutable pending : int;
      (** keys recorded since the last refresh; past the slot count the
          slots are dropped and the next refresh rebuilds every gate *)
  drained : int array;  (** the input gates the running drain has marked *)
  mutable hall_counts : int array;
      (** the column counts per type of the permanent whose h is being
          recomputed, grown to the widest type set met so far *)
}

(** Prepared provenance query: compile once (linear time), then build
    monomial enumerators against the current weight valuation. A weight
    update is recorded in O(1); the next [enumerate] brings the emptiness
    index up to date by re-reading only the recorded inputs. *)
type 'g t = {
  cc : bool Circuits.Compact.t;  (** the compiled circuit, frozen once *)
  meta : Engine.Compile.meta;
  weights : (Circuits.Circuit.input_key, 'g Free.mono list) Hashtbl.t;
      (** current value of each weight as an explicit monomial list *)
  default : Circuits.Circuit.input_key -> 'g Free.mono list;
  mutable index : 'g index option;  (** built by the first [enumerate] *)
  mutable generation : int;
      (** bumped by every refresh that drained an update: enumerators of an
          older generation are stale *)
}

(** [prepare inst expr ~weight] compiles Σ-expression [expr] (over boolean
    constants) and installs [weight] as the initial valuation: the list of
    monomials of each weight's value (often a singleton identifier).
    [weight] is read once per input key at the first [enumerate], and
    again only when more keys were recorded between two enumerations than
    the circuit has inputs: then the next [enumerate] rebuilds the whole
    index through it. *)
let prepare ?opt ?(dynamic_rels = []) ?(budget = Robust.unlimited) (inst : Db.Instance.t)
    (expr : bool Logic.Expr.t) ~(weight : string -> int list -> 'g Free.mono list) :
    'g t =
  let circuit, meta =
    Engine.Compile.compile ~zero:false ~one:true ?opt ~dynamic_rels ~budget inst expr
  in
  {
    cc = Circuits.Compact.of_circuit circuit;
    meta;
    weights = Hashtbl.create 256;
    default = (fun (w, tuple) -> weight w tuple);
    index = None;
    generation = 0;
  }

(** [touch t w tuple leaf] records that weight [w] at [tuple] now has
    the monomials [leaf]: the next [enumerate] gives that value to the
    key's input gate, the last one recorded when a key is touched more
    than once. The caller keeps [~weight] of {!prepare} in step with it,
    since a full rebuild of the index still reads through [~weight]; so a
    key once passed to {!update}, whose value then lives in an overlay
    that [~weight] cannot change, is updated through {!update} only. A
    key that is no input of the circuit is ignored. O(1), with no lookup
    and no hashing. A key touched again right after itself (the same [w]
    and [tuple] values, as when a toggle is undone) keeps one slot, with
    the newer value. *)
let touch t (w : string) (tuple : int list) (leaf : 'g Free.mono array) =
  match t.index with
  | None -> ()
  | Some ix ->
      let i = ix.pending in
      let slots = Array.length ix.pending_w in
      if i > 0 && i <= slots && ix.pending_w.(i - 1) == w && ix.pending_tuple.(i - 1) == tuple
      then ix.pending_leaf.(i - 1) <- leaf
      else begin
        if i < slots then begin
          ix.pending_w.(i) <- w;
          ix.pending_tuple.(i) <- tuple;
          ix.pending_leaf.(i) <- leaf
        end;
        ix.pending <- i + 1
      end

(** Update one weight to a new free-semiring value (list of monomials).
    O(1): recorded in an overlay, and the value carried to the next
    enumeration. *)
let update t (w : string) (tuple : int list) (value : 'g Free.mono list) =
  Hashtbl.replace t.weights (w, tuple) value;
  touch t w tuple (Array.of_list value)

let current t key =
  if Hashtbl.length t.weights = 0 then t.default key
  else match Hashtbl.find_opt t.weights key with Some v -> v | None -> t.default key

let ne ix g = Char.code (Bytes.get ix.nonempty g) land 1 <> 0

(* whether some (every) gate of [a] from [j] up to [hi - 1] is non-empty *)
let rec exists_ne ix a j hi = j < hi && (ne ix a.(j) || exists_ne ix a (j + 1) hi)
let rec for_all_ne ix a j hi = j >= hi || (ne ix a.(j) && for_all_ne ix a (j + 1) hi)

(* h of a non-input gate [g] from its children's h *)
let gate_h (cc : bool Circuits.Compact.t) ix g =
  let lo = cc.child_off.(g) and hi = cc.child_off.(g + 1) in
  match cc.opcode.(g) with
  | 1 -> cc.consts.(cc.arg.(g))
  | 2 -> exists_ne ix cc.children lo hi
  | 3 -> for_all_ne ix cc.children lo hi
  | 4 ->
      let k = cc.perm_rows.(cc.arg.(g)) and n = cc.perm_cols.(cc.arg.(g)) in
      if k = 1 then exists_ne ix cc.children lo hi
      else begin
        if Array.length ix.hall_counts < 1 lsl k then ix.hall_counts <- Array.make (1 lsl k) 0
        else Array.fill ix.hall_counts 0 (1 lsl k) 0;
        let counts = ix.hall_counts in
        for c = 0 to n - 1 do
          let ty = ref 0 in
          for r = 0 to k - 1 do
            if ne ix cc.children.(lo + (r * n) + c) then ty := !ty lor (1 lsl r)
          done;
          counts.(!ty) <- counts.(!ty) + 1
        done;
        Perm.Enum_perm.hall ~k counts ((1 lsl k) - 1)
      end
  | _ -> invalid_arg "Prov_circuit.gate_h: input gate"

let set_h ix g h = Bytes.set ix.nonempty g (if h then '\001' else '\000')

(* Re-read the monomials of the input in pool slot [slot]; returns its h. *)
let read_input t ix slot =
  let ms = Array.of_list (current t t.cc.input_keys.(slot)) in
  ix.leaves.(slot) <- ms;
  Array.length ms > 0

(* The bottom-up pass: every gate's h from the current inputs. *)
let recompute_all t ix =
  let cc = t.cc in
  for g = 0 to cc.n - 1 do
    set_h ix g
      (if cc.opcode.(g) = Circuits.Compact.op_input then read_input t ix cc.arg.(g)
       else gate_h cc ix g)
  done

let build_index t =
  let inputs = Array.length t.cc.input_keys in
  let ix =
    {
      nonempty = Bytes.make t.cc.n '\000';
      par_off = [||];
      par_gate = [||];
      leaves = Array.make inputs [||];
      pending_w = Array.make inputs "";
      pending_tuple = Array.make inputs [];
      pending_leaf = Array.make inputs [||];
      pending = 0;
      drained = Array.make inputs 0;
      hall_counts = [||];
    }
  in
  recompute_all t ix;
  ix

(* Gate [g]'s h became [h]: store it and recompute its parents, a parent
   that lists [g] more than once (met in a row) only once, walking on
   only from those whose h changes. h is monotone in the children's h,
   so one input's flip moves every gate in one direction and visits each
   at most once. *)
let rec flip cc ix g h =
  set_h ix g h;
  let first = ix.par_off.(g) in
  for j = first to ix.par_off.(g + 1) - 1 do
    let p = ix.par_gate.(j) in
    if j = first || ix.par_gate.(j - 1) <> p then begin
      Obs.Counter.incr m_index_recomputed;
      let hp = gate_h cc ix p in
      if hp <> ne ix p then flip cc ix p hp
    end
  done

(* Bring the index up to date with the recorded updates. The records
   are walked newest first and each input gate takes the first value it
   meets, its last one, marked in [nonempty]'s bit 1 until the end of the
   walk; so a key toggled off and back on flips nothing. *)
let refresh t ix =
  let pending = ix.pending in
  if pending > 0 then begin
    if pending > Array.length ix.pending_w then recompute_all t ix
    else begin
      let cc = t.cc in
      let marked = ref 0 in
      for i = pending - 1 downto 0 do
        let g = Circuits.Compact.gate_of cc.keys ix.pending_w.(i) ix.pending_tuple.(i) in
        if g >= 0 && Char.code (Bytes.get ix.nonempty g) land 2 = 0 then begin
          let ms = ix.pending_leaf.(i) in
          ix.leaves.(cc.arg.(g)) <- ms;
          let h = Array.length ms > 0 in
          if h <> ne ix g then begin
            if Array.length ix.par_off = 0 then begin
              let par_off, par_gate, _ = Circuits.Compact.parents cc in
              ix.par_off <- par_off;
              ix.par_gate <- par_gate
            end;
            flip cc ix g h
          end;
          Bytes.set ix.nonempty g (if h then '\003' else '\002');
          ix.drained.(!marked) <- g;
          incr marked
        end
      done;
      for j = 0 to !marked - 1 do
        let g = ix.drained.(j) in
        set_h ix g (ne ix g)
      done
    end;
    ix.pending <- 0;
    t.generation <- t.generation + 1
  end

(* --- enumeration through frames --- *)

type kind = Leaf | One | Sum | Product | Permanent

(** One live cursor of an enumeration: a mutable record re-aimed in place
    at each gate it is to enumerate (see {!aim}), never rebuilt. It walks
    the cyclic sequence ⊥, m₁, …, m_l of its gate's monomials; [live] is
    false at ⊥. *)
type 'g frame = {
  ctx : 'g ctx;
  mutable kind : kind;
  mutable pos : int;
      (** a leaf's position in [leaf] (0 at ⊥, i at its i-th monomial), a
          sum's part (-1 at ⊥) *)
  mutable live : bool;
  mutable leaf : 'g Free.mono array;  (** an input gate's monomials *)
  mutable lo : int;  (** where the gate's children start in [children] *)
  mutable len : int;  (** a sum's parts, a product's factors, a permanent's rows *)
  mutable cols : int;
      (** a permanent's columns: entry (r, c) is child [r * cols + c] *)
  mutable kids : 'g frame array;
      (** child slots: a sum's part in slot 0, a product's factors in
          order; each allocated the first time it is used *)
  mutable perm : ('g frame, 'g frame) Perm.Enum_perm.t option;
      (** a permanent's odometer, over row frames *)
}

(* What every frame of one enumeration reads: the circuit and the index. *)
and 'g ctx = { cc : bool Circuits.Compact.t; ix : 'g index }

(* Frames allocated: a steady-state pass re-aims the ones it has. *)
let m_frames = Obs.counter ~scope:"provenance" "frames_made"

let blank ctx =
  Obs.Counter.incr m_frames;
  {
    ctx;
    kind = One;
    pos = 0;
    live = false;
    leaf = [||];
    lo = 0;
    len = 0;
    cols = 0;
    kids = [||];
    perm = None;
  }

(* [f]'s child slots, with at least [n] of them: a slot is allocated at
   its first use, and the slots grow to the widest gate [f] has met. *)
let slots f n =
  if n > Array.length f.kids then begin
    let old = f.kids in
    f.kids <- Array.init n (fun j -> if j < Array.length old then old.(j) else blank f.ctx)
  end;
  f.kids

let counted ctx id =
  if ctx.cc.opcode.(id) > Circuits.Compact.op_const then Obs.Counter.incr m_cursors_built

(* child [j] of the gate [f] is aimed at *)
let child f j = f.ctx.cc.children.(f.lo + j)

(** [aim f id] points [f] at gate [id], which must be non-empty, at ⊥. A
    one-child sum or one-row one-column permanent resolves to its child,
    each link counted in [provenance/cursors_built] like the other
    non-leaf references a frame is aimed at (the caller counts [id]); a
    product aims its factors at once, a sum its part when it enters it,
    a permanent a row's entry when the row takes its column. *)
let rec aim f id =
  let cc = f.ctx.cc in
  f.live <- false;
  f.lo <- cc.child_off.(id);
  f.len <- cc.child_off.(id + 1) - f.lo;
  match cc.opcode.(id) with
  | 0 ->
      f.kind <- Leaf;
      f.leaf <- f.ctx.ix.leaves.(cc.arg.(id));
      f.pos <- 0
  | _ when f.len = 1 ->
      let g = child f 0 in
      counted f.ctx g;
      aim f g
  | 3 when f.len > 0 ->
      f.kind <- Product;
      let factors = slots f f.len in
      for i = 0 to f.len - 1 do
        let g = child f i in
        counted f.ctx g;
        aim factors.(i) g
      done
  | 4 when cc.perm_rows.(cc.arg.(id)) > 1 -> (
      let k = cc.perm_rows.(cc.arg.(id)) and n = cc.perm_cols.(cc.arg.(id)) in
      f.kind <- Permanent;
      f.len <- k;
      f.cols <- n;
      match f.perm with
      | Some st -> Perm.Enum_perm.aim st f ~rows:k ~cols:n
      | None -> f.perm <- Some (Perm.Enum_perm.create entries f ~rows:k ~cols:n))
  | 2 ->
      f.kind <- Sum;
      f.pos <- -1
  | 4 when cc.perm_rows.(cc.arg.(id)) = 1 ->
      f.kind <- Sum;
      f.pos <- -1
  | _ -> f.kind <- One (* a constant, an empty product, a permanent of no rows *)

(** One movement of [f], forward for a positive [dir], else backward:
    one tick, a permanent's counted by its odometer. *)
and move f dir =
  if f.kind <> Permanent then Enum.Iter.tick ();
  match f.kind with
  | Leaf ->
      let l = Array.length f.leaf in
      f.pos <- (f.pos + if dir > 0 then 1 else l) mod (l + 1);
      f.live <- f.pos > 0
  | One -> f.live <- not f.live
  | Sum ->
      if f.pos < 0 then enter f (if dir > 0 then 0 else f.len - 1) dir
      else begin
        let part = f.kids.(0) in
        move part dir;
        if not part.live then enter f (f.pos + dir) dir
      end
  | Product ->
      (* an odometer, the first factor slowest *)
      if f.live then f.live <- carry f (f.len - 1) dir >= 0
      else begin
        (* at ⊥ every factor is at ⊥: each moves onto its first (or
           last) monomial *)
        for i = 0 to f.len - 1 do
          move f.kids.(i) dir
        done;
        f.live <- true
      end
  | Permanent -> (
      match f.perm with
      | Some st ->
          Perm.Enum_perm.move st dir;
          f.live <- Perm.Enum_perm.live st
      | None -> ())

(* The sum [f] enters its first non-empty part from [j] on, stepping by
   [dir], or goes to ⊥ past the last one. *)
and enter f j dir =
  if j < 0 || j >= f.len then begin
    f.pos <- -1;
    f.live <- false
  end
  else if not (ne f.ctx.ix (child f j)) then enter f (j + dir) dir
  else begin
    let part = (slots f 1).(0) in
    counted f.ctx (child f j);
    aim part (child f j);
    move part dir;
    f.pos <- j;
    f.live <- true
  end

(* Factor [i] of the product [f] moves; if it runs out, the factor
   before it carries and factor [i] moves again, onto its first (or last)
   monomial. The first factor that moved, or -1 when every factor ran
   out. *)
and carry f i dir =
  if i < 0 then -1
  else begin
    let factor = f.kids.(i) in
    move factor dir;
    if factor.live then i
    else begin
      let r = carry f (i - 1) dir in
      if r >= 0 then move factor dir;
      r
    end
  end

(* A permanent's rows are frames aimed at its non-empty entries. *)
and entries : ('g frame, 'g frame) Perm.Enum_perm.entries =
  {
    nonzero = (fun f r c -> ne f.ctx.ix (child f ((r * f.cols) + c)));
    make = (fun f -> blank f.ctx);
    aim =
      (fun e f r c ->
        let g = child f ((r * f.cols) + c) in
        counted f.ctx g;
        aim e g);
    step =
      (fun e dir ->
        move e dir;
        e.live);
  }

(* [g x m] for the current monomial [m] of each live leaf under the live
   frame [f]: their union is [f]'s monomial. Every part, factor and row
   of a live frame is live. *)
let rec iter_leaves f g x =
  match f.kind with
  | Leaf -> g x f.leaf.(f.pos - 1)
  | One -> ()
  | Sum -> iter_leaves f.kids.(0) g x
  | Product ->
      for i = 0 to f.len - 1 do
        iter_leaves f.kids.(i) g x
      done
  | Permanent -> (
      match f.perm with
      | Some st ->
          for r = 0 to f.len - 1 do
            iter_leaves (Perm.Enum_perm.row st r) g x
          done
      | None -> ())

(* Back to ⊥; a product's factors too, since it enters with all of them
   at ⊥ (a sum re-aims its part, and a permanent its rows, on entry). *)
let rec rewind f =
  f.live <- false;
  match f.kind with
  | Leaf | One -> f.pos <- 0
  | Sum -> f.pos <- -1
  | Product ->
      for i = 0 to f.len - 1 do
        rewind f.kids.(i)
      done
  | Permanent -> Option.iter Perm.Enum_perm.reset f.perm

(** A running enumeration: its root frame, or none when the query value
    is empty, and the index generation it was started at. *)
type 'g run = { owner : 'g t; root : 'g frame option; generation : int }

(** Start a constant-delay enumeration of the monomials of the query
    value under the current weights, at ⊥. It reads the shared index:
    once a later [start] has drained an update, moving it raises
    [Robust.Error (Bad_input _)] (a stale enumerator). *)
let start (t : 'g t) : 'g run =
  let ix =
    match t.index with
    | Some ix ->
        refresh t ix;
        ix
    | None ->
        let ix = build_index t in
        t.index <- Some ix;
        ix
  in
  let output = t.cc.output in
  let root =
    if ne ix output then begin
      let f = blank { cc = t.cc; ix } in
      aim f output;
      Some f
    end
    else None
  in
  { owner = t; root; generation = t.generation }

(** One movement, forward for a positive [dir], else backward. *)
let step r dir =
  if r.owner.generation <> r.generation then
    Robust.bad_input "Prov_circuit: stale enumerator (an update was drained after it was built)";
  match r.root with Some f -> move f dir | None -> ()

(** Whether the run is at a monomial. *)
let live r = match r.root with Some f -> f.live | None -> false

(** [iter_value r g x] calls [g x m] for the generators [m] of each live
    leaf of the run, the factors of its current monomial: nothing is
    multiplied, and [g] and [x] come apart so that a caller builds no
    closure. Nothing is called at ⊥. *)
let iter_value r g x = match r.root with Some f when f.live -> iter_leaves f g x | _ -> ()

(** The run's current monomial (the empty one at ⊥), its leaves merged
    on demand. *)
let value r =
  let acc = ref [] in
  iter_value r (fun acc m -> acc := List.rev_append m !acc) acc;
  Free.mono_of_list !acc

let reset r = Option.iter rewind r.root
let is_empty r = Option.is_none r.root

(** A fresh constant-delay enumerator for the monomials of the query value
    under the current weights: the {!Enum.Iter.t} handle over a {!start}. *)
let enumerate (t : 'g t) : 'g Free.mono Enum.Iter.t =
  let r = start t in
  {
    Enum.Iter.current = (fun () -> if live r then Some (value r) else None);
    next = (fun () -> step r 1);
    prev = (fun () -> step r (-1));
    reset = (fun () -> reset r);
    is_empty = (fun () -> is_empty r);
  }

let meta t = t.meta

(** Parameters of the compiled circuit the enumerators walk (the
    Theorem 22 preprocessing output), for observability surfaces. *)
let circuit_stats (t : 'g t) = Circuits.Circuit.stats (Circuits.Compact.to_circuit t.cc)
