(** Append-only journal of committed update batches — the durability
    primitive under {!Dyn.replay} and [Engine.Eval.replay]: a fresh
    compile plus a replay of the journal reconstructs the exact served
    state, so a process restart (or a repair-from-scratch) never loses
    committed writes.

    Two record kinds share the commit sequence:

    - {b weight batches} — the input-key assignments of one committed
      propagation wave (the only record kind before structural updates);
    - {b structural ops} — one committed tuple insert or delete, recorded
      by the localized-recompile path so a replay can re-run the same
      splice against a fresh compile. Only [Engine.Eval.replay] can
      re-run one; {!Dyn.replay} rejects them as [Bad_input].

    Each record carries a checksum of its marshalled payload; {!verify}
    and {!load} re-derive the checksum so silent corruption (in memory or
    on disk) is detected before a replay can serve wrong answers. The
    optional file form is a small length-prefixed binary format:

      magic "SPQJ1\n", then per record
      [4-byte length | 4-byte FNV-1a checksum | payload],

    payload = [Marshal] of the record body, records oldest-first. Weight
    batches keep the pre-structural encoding bit for bit (payload = the
    assignment list, length positive); a structural op is framed with the
    {e negated} payload length — readers from before the extension reject
    the negative length as implausible instead of misdecoding it, and
    weight-only journals written today remain byte-identical to the
    committed golden fixture. *)

(** One committed tuple insert or delete against a relation. *)
type structural_op = {
  s_insert : bool;  (** true = insert, false = delete *)
  s_rel : string;
  s_tup : int list;
}

type 'a record =
  | Weights of (Circuit.input_key * 'a) list  (** committed assignments, oldest first *)
  | Structural of structural_op

type 'a batch = {
  seq : int;  (** 0-based position in commit order *)
  op : 'a record;
  checksum : int;  (** FNV-1a (32-bit) of the marshalled payload *)
}

(** The weight assignments of a batch ([[]] for a structural op) — the
    accessor most consumers of pre-structural journals used. *)
let writes (b : 'a batch) : (Circuit.input_key * 'a) list =
  match b.op with Weights ws -> ws | Structural _ -> []

let structural (b : 'a batch) : structural_op option =
  match b.op with Weights _ -> None | Structural s -> Some s

type 'a t = {
  mutable rev_batches : 'a batch list;  (** newest first *)
  mutable count : int;
  mutable total_bytes : int;  (** marshalled payload bytes appended so far *)
}

(* Durability observables (scope "dyn", next to the update-wave metrics the
   journal shadows): committed batches and their payload volume. *)
let m_journal_batches = Obs.counter ~scope:"dyn" "journal_batches"
let m_journal_bytes = Obs.counter ~scope:"dyn" "journal_bytes"
let m_journal_structural = Obs.counter ~scope:"dyn" "journal_structural_ops"

let create () : 'a t = { rev_batches = []; count = 0; total_bytes = 0 }

(* FNV-1a, 32-bit: cheap, stdlib-only, and stable across runs (unlike
   [Hashtbl.hash] on structured data it is defined on the exact bytes). *)
let checksum_bytes (s : string) : int =
  let h = ref 0x811c9dc5 in
  String.iter (fun c -> h := (!h lxor Char.code c) * 0x01000193 land 0xFFFFFFFF) s;
  !h

(* The two payload encoders are kept separate (rather than marshalling the
   [record] variant) so weight batches stay byte-compatible with journals
   written before structural ops existed. *)
let encode_record (op : 'a record) : string =
  match op with
  | Weights ws -> Marshal.to_string ws []
  | Structural s -> Marshal.to_string s []

let append_record (t : 'a t) (op : 'a record) : unit =
  let payload = encode_record op in
  let b = { seq = t.count; op; checksum = checksum_bytes payload } in
  t.rev_batches <- b :: t.rev_batches;
  t.count <- t.count + 1;
  t.total_bytes <- t.total_bytes + String.length payload;
  Obs.Counter.incr m_journal_batches;
  (match op with Structural _ -> Obs.Counter.incr m_journal_structural | Weights _ -> ());
  Obs.Counter.add m_journal_bytes (String.length payload)

(** Record one committed weight batch (empty batches are kept too: replay
    must preserve commit positions for the seq numbers to line up). *)
let append (t : 'a t) (writes : (Circuit.input_key * 'a) list) : unit =
  append_record t (Weights writes)

(** Record one committed structural update (tuple insert/delete). *)
let append_structural (t : 'a t) ~(insert : bool) ~(rel : string) ~(tup : int list) : unit =
  append_record t (Structural { s_insert = insert; s_rel = rel; s_tup = tup })

(** Batches oldest-first (commit order). *)
let batches (t : 'a t) : 'a batch list = List.rev t.rev_batches

let length (t : 'a t) : int = t.count
let bytes (t : 'a t) : int = t.total_bytes

let structural_count (t : 'a t) : int =
  List.fold_left
    (fun acc b -> match b.op with Structural _ -> acc + 1 | Weights _ -> acc)
    0 t.rev_batches

(** Re-derive every checksum; [Some seq] is the first corrupt batch. *)
let verify (t : 'a t) : int option =
  List.fold_left
    (fun acc b ->
      match acc with
      | Some _ -> acc
      | None -> if checksum_bytes (encode_record b.op) <> b.checksum then Some b.seq else None)
    None (batches t)

let magic = "SPQJ1\n"

(** Write the journal to [path] in the length-prefixed binary format.
    Crash-safe ({!Obs.write_file_atomic}): a save that fails part-way
    leaves the previous journal file intact. *)
let save (t : 'a t) (path : string) : unit =
  Obs.write_file_atomic path @@ fun oc ->
  output_string oc magic;
  List.iter
    (fun b ->
      let payload = encode_record b.op in
      (* structural ops are framed with the negated length; weight batches
         keep the original positive-length frame *)
      (match b.op with
      | Weights _ -> output_binary_int oc (String.length payload)
      | Structural _ -> output_binary_int oc (-String.length payload));
      output_binary_int oc b.checksum;
      output_string oc payload)
    (batches t)

(** Read a journal back; every record's checksum is re-derived from the
    payload actually read, so truncation and bit flips surface as
    [Robust.Bad_input] here rather than as a wrong replayed state. Only a
    file that ends exactly on a frame boundary loads: a cut anywhere
    inside a frame — its 8-byte header included — names the torn batch. *)
let load (path : string) : 'a t =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
  (match really_input_string ic (String.length magic) with
  | m when m = magic -> ()
  | _ -> Robust.bad_input "Journal.load: %s is not an update journal (bad magic)" path
  | exception End_of_file ->
      Robust.bad_input "Journal.load: %s is not an update journal (too short)" path);
  let t = create () in
  let size = in_channel_length ic in
  let rec loop () =
    let left = size - pos_in ic in
    if left > 0 then begin
      if left < 8 then
        Robust.bad_input "Journal.load: %s truncated inside batch %d's frame header" path
          t.count;
      let tagged_len = input_binary_int ic in
      let structural = tagged_len < 0 in
      let len = abs tagged_len in
      if len = 0 && structural then
        Robust.bad_input "Journal.load: %s batch %d has implausible length %d" path
          t.count tagged_len;
      if len > 1 lsl 30 then
        Robust.bad_input "Journal.load: %s batch %d has implausible length %d" path
          t.count len;
      let stored = input_binary_int ic land 0xFFFFFFFF in
      let payload =
        try really_input_string ic len
        with End_of_file ->
          Robust.bad_input "Journal.load: %s truncated inside batch %d" path t.count
      in
      if checksum_bytes payload <> stored then
        Robust.bad_input "Journal.load: %s batch %d fails its checksum" path t.count;
      if structural then begin
        let s : structural_op = Marshal.from_string payload 0 in
        if s.s_rel = "" || List.exists (fun v -> v < 0) s.s_tup then
          Robust.bad_input "Journal.load: %s batch %d has a malformed structural op"
            path t.count;
        append_record t (Structural s)
      end
      else append_record t (Weights (Marshal.from_string payload 0));
      loop ()
    end
  in
  loop ();
  t
