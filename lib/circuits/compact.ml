(** Compact CSR/struct-of-arrays circuit runtime.

    {!Circuit.t} is a boxed variant graph: every gate is a heap block and
    every child reference a pointer chase, so after the optimizer has
    shrunk the DAG the evaluation and update loops are cache-miss bound
    rather than compute bound. This module stores the same Theorem 6
    circuit as parallel flat arrays:

    {v
      opcode    : int array          0=Input 1=Const 2=Add 3=Mul 4=Perm
      arg       : int array          per-gate immediate (see below)
      child_off : int array (n+1)    CSR offsets into [children]
      children  : int array          child gate ids, per gate contiguous
                                     (Perm children row-major)
      perm_rows : int array          per Perm descriptor: matrix rows
      perm_cols : int array          per Perm descriptor: matrix columns
      consts    : 'a array           constant pool
      input_keys: input_key array    input pool, in gate order
    v}

    [arg] holds the index into the pool the opcode selects: the input-key
    pool for [Input], the constant pool for [Const], the Perm descriptor
    table for [Perm]; [-1] for [Add]/[Mul]. Pools are filled in gate order,
    so the k-th Input gate has [arg = k] — {!validate} enforces this
    canonical form, which also makes the serialized bytes deterministic.

    Gate values live in one ['a array] indexed by gate id, for every
    semiring. These arrays plus that value array are the only runtime
    form of a served query. Beside them, [keys] indexes the input pool by
    key ({!gate_of}): it is derived from the arrays, built by
    {!of_circuit} and {!load}, and never saved.

    A compact circuit can be persisted: {!save}/{!load} use a versioned
    length-prefixed binary format ([SPQC1], FNV-1a section checksums like
    {!Journal}) so a compiled+optimized circuit is written once and loaded
    back in O(size), with corruption surfacing as [Robust.Bad_input]
    rather than as wrong answers; a save goes through
    {!Obs.write_file_atomic}, so one that fails part-way leaves the
    previous file intact. *)

let op_input = 0
let op_const = 1
let op_add = 2
let op_mul = 3
let op_perm = 4

(* --- the key index --- *)

(** Input gates by key, in a flat open-addressing table of packed integer
    keys: the runtime's one key→gate index, through which [Dyn]'s writes
    and reads and [Provenance]'s enumeration drain all resolve a key.

    A key (w, a₁ … a_k) packs to [sym + nsyms * d], where [sym] is [w]'s
    position among the [nsyms] distinct weight symbols of the inputs and
    [d] reads the digits a₁ + 1, …, a_k + 1 in base [radix], 2 + the
    largest tuple element of any input. No digit is 0, so tuples of
    different arities never collide, and the packing is injective.

    The packing assumes non-negative elements and a packed value that
    fits in an OCaml int. A key outside those bounds (a negative element,
    or a long tuple over a large domain) spills into a balanced map. A
    key with an unknown symbol or an element above the largest one of any
    input is no input gate's. *)
module Spill = Map.Make (struct
  type t = Circuit.input_key

  let compare = compare
end)

type keys = {
  symbols : string array;
  radix : int;
  digit_limit : int;  (** the largest [d] that one more digit cannot overflow *)
  symbol_limit : int;  (** the largest [d] that [sym + nsyms * d] cannot overflow *)
  slots : int array;
      (** [slots.(2 i)] is a packed key, or [-1] for a free slot, and
          [slots.(2 i + 1)] its input gate; at most 2/3 of the slots are
          taken *)
  mutable spill : int Spill.t;  (** the keys that do not pack *)
}

let not_input = -1
let unpacked = -2

(* [w]'s position in [symbols] up to [i], or [not_input]. The symbols are
   few (one per weight of the query), so a scan beats a hash. The lookups
   are top-level functions, so that a probe allocates no closure. *)
let rec symbol_from symbols w i =
  if i < 0 then not_input
  else if String.equal symbols.(i) w then i
  else symbol_from symbols w (i - 1)

(* The packed key of symbol [sym] at [tuple], read on from [d]: the key,
   [not_input] or [unpacked] *)
let rec pack_from keys sym d = function
  | [] -> if d > keys.symbol_limit then unpacked else (d * Array.length keys.symbols) + sym
  | a :: rest ->
      if a < 0 || d > keys.digit_limit then unpacked
      else if a > keys.radix - 2 then not_input
      else pack_from keys sym ((d * keys.radix) + a + 1) rest

let pack keys w tuple =
  let sym = symbol_from keys.symbols w (Array.length keys.symbols - 1) in
  if sym < 0 then not_input else pack_from keys sym 0 tuple

(* A key's home slot: 31 bits of a multiplicative hash, scaled to the
   slot count; a collision moves on to the next slot. *)
let home slots k = ((k * 0x1E3779B97F4A7C15) lsr 32 * (Array.length slots / 2)) lsr 31
let next_slot slots i = if 2 * (i + 1) = Array.length slots then 0 else i + 1

(* The slot that holds key [k], or the free slot where it would go *)
let rec slot_from slots k i =
  if slots.(2 * i) = k || slots.(2 * i) < 0 then i else slot_from slots k (next_slot slots i)

let slot slots k = slot_from slots k (home slots k)

(** The index of the keys [iter] lists, each with its input gate; [iter]
    is walked twice. Raises [Robust.Bad_input] on a key listed twice:
    this is the one place the runtime rejects duplicate input keys. *)
let build_keys (iter : (Circuit.input_key -> int -> unit) -> unit) : keys =
  let symbols = ref [] and top = ref 0 and inputs = ref 0 in
  iter (fun (w, tuple) _ ->
      if not (List.exists (String.equal w) !symbols) then symbols := w :: !symbols;
      List.iter (fun a -> top := max !top a) tuple;
      incr inputs);
  let radix = !top + 2 and nsyms = max 1 (List.length !symbols) in
  let keys =
    {
      symbols = Array.of_list !symbols;
      radix;
      digit_limit = (max_int - radix) / radix;
      symbol_limit = (max_int - nsyms) / nsyms;
      slots = Array.make (2 * (!inputs + (!inputs / 2) + 1)) (-1);
      spill = Spill.empty;
    }
  in
  let duplicate (w, tuple) =
    Robust.bad_input "Compact: duplicate input key (%s, [%s])" w
      (String.concat ";" (List.map string_of_int tuple))
  in
  iter (fun ((w, tuple) as key) g ->
      let k = pack keys w tuple in
      if k < 0 then begin
        if Spill.mem key keys.spill then duplicate key;
        keys.spill <- Spill.add key g keys.spill
      end
      else begin
        let i = slot keys.slots k in
        if keys.slots.(2 * i) = k then duplicate key;
        keys.slots.(2 * i) <- k;
        keys.slots.((2 * i) + 1) <- g
      end);
  keys

(** The input gate of key [(w, tuple)], or [-1]. *)
let gate_of keys w tuple =
  let k = pack keys w tuple in
  if k >= 0 then
    let i = slot keys.slots k in
    if keys.slots.(2 * i) = k then keys.slots.((2 * i) + 1) else not_input
  else if k = not_input then not_input
  else Option.value (Spill.find_opt (w, tuple) keys.spill) ~default:not_input

type 'a t = {
  n : int;  (** gate count *)
  opcode : int array;  (** n entries, each in 0..4 *)
  arg : int array;  (** n entries: pool index per opcode, -1 for Add/Mul *)
  child_off : int array;  (** n+1 CSR offsets into [children] *)
  children : int array;  (** flat child ids; strictly smaller than their gate *)
  perm_rows : int array;  (** per Perm descriptor *)
  perm_cols : int array;  (** per Perm descriptor *)
  consts : 'a array;
  input_keys : Circuit.input_key array;
  keys : keys;  (** key → input gate id (derived, not saved) *)
  output : int;
}

(** The input gate of [key], or [-1]. *)
let input_gate t (w, tuple) = gate_of t.keys w tuple

(* Each input gate's key and id, in gate order *)
let iter_inputs opcode arg input_keys f =
  Array.iteri (fun id op -> if op = op_input then f input_keys.(arg.(id)) id) opcode

(* --- conversion --- *)

(** One-shot conversion from the boxed graph, meant to run on the output
    of the {!Opt} pipeline. Child references are re-validated here even
    though {!Circuit.finish} already checks them: the node array is
    mutable, so a Perm matrix rewritten after [finish] can hold a
    negative (dropped) gate id, and it must fail with a structured error,
    not a bounds [Invalid_argument] deep inside an array blit. *)
let of_circuit (c : 'a Circuit.t) : 'a t =
  let nodes = c.Circuit.nodes in
  let n = Array.length nodes in
  if n = 0 then Robust.bad_input "Compact.of_circuit: empty circuit";
  if c.Circuit.output < 0 || c.Circuit.output >= n then
    Robust.bad_input "Compact.of_circuit: output gate %d out of range (%d gates)"
      c.Circuit.output n;
  let check_child id g =
    if g < 0 then
      Robust.bad_input
        "Compact.of_circuit: gate %d references dropped child %d (a negative gate id)" id g
    else if g >= id then
      Robust.bad_input
        "Compact.of_circuit: gate %d references child %d; children must have strictly \
         smaller ids (topological order)"
        id g
  in
  let opcode = Array.make n 0 in
  let arg = Array.make n (-1) in
  let child_off = Array.make (n + 1) 0 in
  let nchildren = ref 0 in
  let rev_consts = ref [] and nconsts = ref 0 in
  let rev_keys = ref [] and nkeys = ref 0 in
  let rev_rows = ref [] and rev_cols = ref [] and nperm = ref 0 in
  Array.iteri
    (fun id node ->
      (match node with
      | Circuit.Input key ->
          opcode.(id) <- op_input;
          arg.(id) <- !nkeys;
          rev_keys := key :: !rev_keys;
          incr nkeys
      | Circuit.Const s ->
          opcode.(id) <- op_const;
          arg.(id) <- !nconsts;
          rev_consts := s :: !rev_consts;
          incr nconsts
      | Circuit.Add gs ->
          opcode.(id) <- op_add;
          Array.iter (check_child id) gs;
          nchildren := !nchildren + Array.length gs
      | Circuit.Mul gs ->
          opcode.(id) <- op_mul;
          Array.iter (check_child id) gs;
          nchildren := !nchildren + Array.length gs
      | Circuit.Perm rows ->
          opcode.(id) <- op_perm;
          arg.(id) <- !nperm;
          let r = Array.length rows in
          let cols = if r = 0 then 0 else Array.length rows.(0) in
          Array.iteri
            (fun ri row ->
              if Array.length row <> cols then
                Robust.bad_input
                  "Compact.of_circuit: gate %d has a ragged permanent matrix (row 0 has \
                   %d columns, row %d has %d)"
                  id cols ri (Array.length row);
              Array.iter (check_child id) row)
            rows;
          rev_rows := r :: !rev_rows;
          rev_cols := cols :: !rev_cols;
          incr nperm;
          nchildren := !nchildren + (r * cols));
      child_off.(id + 1) <- !nchildren)
    nodes;
  let children = Array.make !nchildren 0 in
  Array.iteri
    (fun id node ->
      let pos = ref child_off.(id) in
      let put g =
        children.(!pos) <- g;
        incr pos
      in
      match node with
      | Circuit.Input _ | Circuit.Const _ -> ()
      | Circuit.Add gs | Circuit.Mul gs -> Array.iter put gs
      | Circuit.Perm rows -> Array.iter (Array.iter put) rows)
    nodes;
  let input_keys = Array.of_list (List.rev !rev_keys) in
  {
    n;
    opcode;
    arg;
    child_off;
    children;
    perm_rows = Array.of_list (List.rev !rev_rows);
    perm_cols = Array.of_list (List.rev !rev_cols);
    consts = Array.of_list (List.rev !rev_consts);
    input_keys;
    keys = build_keys (iter_inputs opcode arg input_keys);
    output = c.Circuit.output;
  }

(** Back to the boxed graph, gate ids unchanged — O(size); how a loaded
    circuit's or a served query's statistics are reported. *)
let to_circuit (t : 'a t) : 'a Circuit.t =
  let nodes =
    Array.init t.n (fun id ->
        let base = t.child_off.(id) in
        let deg = t.child_off.(id + 1) - base in
        match t.opcode.(id) with
        | 0 -> Circuit.Input t.input_keys.(t.arg.(id))
        | 1 -> Circuit.Const t.consts.(t.arg.(id))
        | 2 -> Circuit.Add (Array.init deg (fun i -> t.children.(base + i)))
        | 3 -> Circuit.Mul (Array.init deg (fun i -> t.children.(base + i)))
        | _ ->
            let d = t.arg.(id) in
            let rows = t.perm_rows.(d) and cols = t.perm_cols.(d) in
            Circuit.Perm
              (Array.init rows (fun r ->
                   Array.init cols (fun c -> t.children.(base + (r * cols) + c)))))
  in
  { Circuit.nodes; output = t.output }

(** The parent lists in CSR form, [(par_off, par_gate, par_slot)]: the
    references to gate [g] are [par_off.(g)] up to [par_off.(g + 1) - 1],
    each its parent's id in [par_gate] and its slot in that parent's
    child order in [par_slot]. One entry per child reference, so a parent
    that lists [g] twice appears twice; parents come in ascending id
    order, so such repeats are adjacent. *)
let parents (t : 'a t) : int array * int array * int array =
  let n = t.n in
  (* count, prefix-sum, fill *)
  let par_off = Array.make (n + 1) 0 in
  Array.iter (fun g -> par_off.(g + 1) <- par_off.(g + 1) + 1) t.children;
  for g = 0 to n - 1 do
    par_off.(g + 1) <- par_off.(g + 1) + par_off.(g)
  done;
  let nch = Array.length t.children in
  let par_gate = Array.make nch 0 and par_slot = Array.make nch 0 in
  let cursor = Array.sub par_off 0 n in
  let coff = t.child_off in
  for id = 0 to n - 1 do
    for i = coff.(id) to coff.(id + 1) - 1 do
      let g = t.children.(i) in
      par_gate.(cursor.(g)) <- id;
      par_slot.(cursor.(g)) <- i - coff.(id);
      cursor.(g) <- cursor.(g) + 1
    done
  done;
  (par_off, par_gate, par_slot)

(* --- evaluation --- *)

(* Permanent gate: materialize the matrix from the gate values and run
   the static O(2ᵏ·k·n) DP — identical to the boxed evaluator's Perm case. *)
let perm_matrix (t : 'a t) (vals : 'a array) (id : int) : 'a array array =
  let d = t.arg.(id) in
  let rows = t.perm_rows.(d) and cols = t.perm_cols.(d) in
  let base = t.child_off.(id) in
  Array.init rows (fun r ->
      Array.init cols (fun c -> vals.(t.children.(base + (r * cols) + c))))

(** Evaluate every gate bottom-up into [vals], seeding input gates from
    [valuation]. Exposed for callers that want to read several gate
    values. Raises [Invalid_argument] if [vals] has fewer than [n]
    entries. *)
let eval_into (ops : 'a Semiring.Intf.ops) (t : 'a t) (valuation : Circuit.input_key -> 'a)
    (vals : 'a array) : unit =
  let open Semiring.Intf in
  if Array.length vals < t.n then
    invalid_arg
      (Printf.sprintf "Compact.eval_into: value array has %d entries for %d gates"
         (Array.length vals) t.n);
  let opcode = t.opcode
  and arg = t.arg
  and child_off = t.child_off
  and children = t.children in
  (* unsafe_get is sound: every index was validated by of_circuit/load
     ([children] ids < gate < n), and [vals] was checked above *)
  for id = 0 to t.n - 1 do
    let v =
      match Array.unsafe_get opcode id with
      | 0 -> valuation t.input_keys.(Array.unsafe_get arg id)
      | 1 -> t.consts.(Array.unsafe_get arg id)
      | 2 ->
          let acc = ref ops.zero in
          for i = Array.unsafe_get child_off id to Array.unsafe_get child_off (id + 1) - 1 do
            acc := ops.add !acc (Array.unsafe_get vals (Array.unsafe_get children i))
          done;
          !acc
      | 3 ->
          let acc = ref ops.one in
          for i = Array.unsafe_get child_off id to Array.unsafe_get child_off (id + 1) - 1 do
            acc := ops.mul !acc (Array.unsafe_get vals (Array.unsafe_get children i))
          done;
          !acc
      | _ -> Perm.Static.perm ops (perm_matrix t vals id)
    in
    Array.unsafe_set vals id v
  done

(** Evaluate under a valuation of the input gates; same empty-gate
    conventions as {!Circuit.eval} ([Add [||]] = zero, [Mul [||]] = one). *)
let eval (ops : 'a Semiring.Intf.ops) (t : 'a t) (valuation : Circuit.input_key -> 'a) :
    'a =
  let vals = Array.make t.n ops.Semiring.Intf.zero in
  eval_into ops t valuation vals;
  vals.(t.output)

(* --- structural validation --- *)

(* {!validate}, returning the index of [t]'s own input pool (its [keys]
   are not trusted): building it rejects a duplicate key. *)
let checked_keys (t : 'a t) : keys =
  let fail fmt = Robust.bad_input fmt in
  let n = t.n in
  if n <= 0 then fail "Compact.validate: empty circuit";
  if Array.length t.opcode <> n then fail "Compact.validate: opcode array length mismatch";
  if Array.length t.arg <> n then fail "Compact.validate: arg array length mismatch";
  if Array.length t.child_off <> n + 1 then
    fail "Compact.validate: child_off must have %d entries" (n + 1);
  if t.output < 0 || t.output >= n then fail "Compact.validate: output gate out of range";
  if Array.length t.perm_rows <> Array.length t.perm_cols then
    fail "Compact.validate: perm descriptor tables disagree in length";
  if t.child_off.(0) <> 0 then fail "Compact.validate: child_off must start at 0";
  if t.child_off.(n) <> Array.length t.children then
    fail "Compact.validate: child_off must end at the children count";
  let seen_inputs = ref 0 and seen_consts = ref 0 and seen_perms = ref 0 in
  for id = 0 to n - 1 do
    let base = t.child_off.(id) in
    let next = t.child_off.(id + 1) in
    if next < base then fail "Compact.validate: child_off decreases at gate %d" id;
    let deg = next - base in
    for i = base to next - 1 do
      let g = t.children.(i) in
      if g < 0 || g >= id then
        fail "Compact.validate: gate %d references child %d (not strictly smaller)" id g
    done;
    match t.opcode.(id) with
    | 0 ->
        if deg <> 0 then fail "Compact.validate: input gate %d has children" id;
        if t.arg.(id) <> !seen_inputs then
          fail "Compact.validate: input gate %d breaks pool order" id;
        incr seen_inputs
    | 1 ->
        if deg <> 0 then fail "Compact.validate: const gate %d has children" id;
        if t.arg.(id) <> !seen_consts then
          fail "Compact.validate: const gate %d breaks pool order" id;
        incr seen_consts
    | 2 | 3 ->
        if t.arg.(id) <> -1 then fail "Compact.validate: add/mul gate %d has an arg" id
    | 4 ->
        let d = t.arg.(id) in
        if d <> !seen_perms then fail "Compact.validate: perm gate %d breaks pool order" id;
        incr seen_perms;
        let rows = t.perm_rows.(d) and cols = t.perm_cols.(d) in
        if rows < 0 || cols < 0 then
          fail "Compact.validate: perm gate %d has negative dimensions" id;
        if deg <> rows * cols then
          fail "Compact.validate: perm gate %d has %d children for a %dx%d matrix" id deg
            rows cols
    | op -> fail "Compact.validate: gate %d has unknown opcode %d" id op
  done;
  if !seen_inputs <> Array.length t.input_keys then
    fail "Compact.validate: input pool size disagrees with input gate count";
  if !seen_consts <> Array.length t.consts then
    fail "Compact.validate: constant pool size disagrees with const gate count";
  if !seen_perms <> Array.length t.perm_rows then
    fail "Compact.validate: perm descriptor count disagrees with perm gate count";
  build_keys (iter_inputs t.opcode t.arg t.input_keys)

(** Check every invariant the runtime relies on; raises [Robust.Bad_input]
    on the first violation. {!load} runs this on everything it reads, so a
    file that passes the checksums but encodes a malformed DAG still
    cannot crash the evaluator or the wave engine. *)
let validate (t : 'a t) : unit = ignore (checked_keys t)

(* --- serialization (SPQC1) --- *)

let magic = "SPQC1\n"

(* Section payloads are individually protected: [4-byte length | 4-byte
   FNV-1a checksum | payload], the same frame as Journal's SPQJ1 records.
   All lengths and array entries fit comfortably in 32 bits (gate counts
   are bounded by in-memory array sizes and validated on load). *)
let checksum_bytes (s : string) : int =
  let h = ref 0x811c9dc5 in
  String.iter (fun c -> h := (!h lxor Char.code c) * 0x01000193 land 0xFFFFFFFF) s;
  !h

let encode_ints (a : int array) : string =
  let b = Bytes.create (4 * Array.length a) in
  Array.iteri (fun i x -> Bytes.set_int32_be b (4 * i) (Int32.of_int x)) a;
  Bytes.unsafe_to_string b

let max_section = 1 lsl 30

(** Serialize to [path]. [tag] is a free-form caller string (the CLI
    stores the semiring name) checked by the caller after {!load} — the
    constant pool goes through [Marshal], so evaluating a circuit in a
    semiring other than the one it was saved under is undefined; the tag
    lets callers refuse early. The writer is deterministic: saving a
    loaded circuit reproduces the input file byte for byte. *)
let save ?(tag = "") (t : 'a t) (path : string) : unit =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf magic;
  let section payload =
    Buffer.add_int32_be buf (Int32.of_int (String.length payload));
    Buffer.add_int32_be buf (Int32.of_int (checksum_bytes payload));
    Buffer.add_string buf payload
  in
  section
    (encode_ints
       [|
         t.n;
         t.output;
         Array.length t.children;
         Array.length t.perm_rows;
         Array.length t.consts;
         Array.length t.input_keys;
       |]);
  section tag;
  section (encode_ints t.opcode);
  section (encode_ints t.arg);
  section (encode_ints t.child_off);
  section (encode_ints t.children);
  section (encode_ints t.perm_rows);
  section (encode_ints t.perm_cols);
  section (Marshal.to_string t.consts []);
  section (Marshal.to_string t.input_keys []);
  Obs.write_file_atomic path (fun oc -> Buffer.output_buffer oc buf)

(** Read a circuit back. Every frame's length is bounds-checked against
    the bytes actually remaining {e before} any allocation, every checksum
    is re-derived from the bytes actually read, and the decoded structure
    goes through {!validate} — bit flips, truncations and version bumps
    all surface as [Robust.Bad_input], never as a crash, a hang, or an
    over-allocation. Returns the circuit and the saved tag. *)
let load (path : string) : 'a t * string =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
  let file_len = in_channel_length ic in
  (match really_input_string ic (String.length magic) with
  | m when m = magic -> ()
  | m when String.length m >= 4 && String.sub m 0 4 = "SPQC" ->
      Robust.bad_input "Compact.load: %s uses an unsupported circuit format version" path
  | _ -> Robust.bad_input "Compact.load: %s is not a compact circuit file (bad magic)" path
  | exception End_of_file ->
      Robust.bad_input "Compact.load: %s is not a compact circuit file (too short)" path);
  let read_int32 what =
    try Int32.to_int (Bytes.get_int32_be (Bytes.of_string (really_input_string ic 4)) 0)
    with End_of_file -> Robust.bad_input "Compact.load: %s truncated in %s" path what
  in
  let read_section name =
    let len = read_int32 name in
    if len < 0 || len > max_section then
      Robust.bad_input "Compact.load: %s section %s has implausible length %d" path name
        len;
    if len + 4 > file_len - pos_in ic then
      Robust.bad_input "Compact.load: %s truncated inside section %s" path name;
    let stored = read_int32 name land 0xFFFFFFFF in
    let payload =
      try really_input_string ic len
      with End_of_file ->
        Robust.bad_input "Compact.load: %s truncated inside section %s" path name
    in
    if checksum_bytes payload <> stored then
      Robust.bad_input "Compact.load: %s section %s fails its checksum" path name;
    payload
  in
  let decode_ints name payload =
    let len = String.length payload in
    if len mod 4 <> 0 then
      Robust.bad_input "Compact.load: %s section %s is not an int array" path name;
    Array.init (len / 4)
      (fun i -> Int32.to_int (Bytes.get_int32_be (Bytes.unsafe_of_string payload) (4 * i)))
  in
  let header = decode_ints "header" (read_section "header") in
  if Array.length header <> 6 then
    Robust.bad_input "Compact.load: %s has a malformed header" path;
  let n = header.(0) in
  if n <= 0 || n > max_section then
    Robust.bad_input "Compact.load: %s declares an implausible gate count %d" path n;
  let tag = read_section "tag" in
  let opcode = decode_ints "opcode" (read_section "opcode") in
  let arg = decode_ints "arg" (read_section "arg") in
  let child_off = decode_ints "child_off" (read_section "child_off") in
  let children = decode_ints "children" (read_section "children") in
  let perm_rows = decode_ints "perm_rows" (read_section "perm_rows") in
  let perm_cols = decode_ints "perm_cols" (read_section "perm_cols") in
  let consts_payload = read_section "consts" in
  let keys_payload = read_section "input_keys" in
  if pos_in ic <> file_len then
    Robust.bad_input "Compact.load: %s has trailing bytes after the last section" path;
  let unmarshal name payload =
    (* the checksum already passed, so this only fails on a file written
       with an incompatible runtime — still a Bad_input, not a crash *)
    try Marshal.from_string payload 0
    with _ ->
      Robust.bad_input "Compact.load: %s section %s does not decode" path name
  in
  let consts : 'a array = unmarshal "consts" consts_payload in
  let input_keys : Circuit.input_key array = unmarshal "input_keys" keys_payload in
  if
    header.(2) <> Array.length children
    || header.(3) <> Array.length perm_rows
    || header.(4) <> Array.length consts
    || header.(5) <> Array.length input_keys
  then Robust.bad_input "Compact.load: %s header disagrees with its sections" path;
  let t =
    {
      n;
      opcode;
      arg;
      child_off;
      children;
      perm_rows;
      perm_cols;
      consts;
      input_keys;
      keys = build_keys ignore (* the empty index, until the checks pass *);
      output = header.(1);
    }
  in
  ({ t with keys = checked_keys t }, tag)
