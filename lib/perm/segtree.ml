(** Dynamic permanent for arbitrary semirings — the computational content
    of Lemma 10 / Lemma 11. A balanced segment tree over the columns stores
    at every node, for each subset S of the k rows, the permanent of the
    submatrix (S × columns-under-the-node); merging two children is the
    subset convolution

        node.(S) = Σ over T ⊆ S of left.(T) · right.(S minus T),

    which is identity (3) of Lemma 10 applied recursively. Building costs
    O(3ᵏ n); a single-entry update recomputes one leaf-to-root path,
    O(3ᵏ log n) — the logarithmic update of Corollary 13, tight for general
    semirings by Proposition 14. *)

type 'a t = {
  ops : 'a Semiring.Intf.ops;
  k : int;
  n : int;
  size : int;  (** number of leaves (≥ n, a power of two) *)
  nodes : 'a array array;  (** heap-ordered; nodes.(i).(mask) *)
  columns : 'a array array;  (** current column vectors, n × k *)
}

(* Gate-strategy counters (scope "perm"): how often the logarithmic
   segment-tree strategy is instantiated and hit by updates, and how many
   batched entry points amortize those updates. *)
let m_creates = Obs.counter ~scope:"perm" "segtree_creates"
let m_sets = Obs.counter ~scope:"perm" "segtree_sets"
let m_batches = Obs.counter ~scope:"perm" "segtree_batches"

let full t = (1 lsl t.k) - 1

let leaf_vector ops k col =
  let v = Array.make (1 lsl k) ops.Semiring.Intf.zero in
  v.(0) <- ops.Semiring.Intf.one;
  for r = 0 to k - 1 do
    v.(1 lsl r) <- col.(r)
  done;
  v

let neutral_vector ops k =
  let v = Array.make (1 lsl k) ops.Semiring.Intf.zero in
  v.(0) <- ops.Semiring.Intf.one;
  v

let merge ops k a b =
  let open Semiring.Intf in
  let res = Array.make (1 lsl k) ops.zero in
  let fullmask = (1 lsl k) - 1 in
  for mask = 0 to fullmask do
    let acc = ref ops.zero in
    List.iter
      (fun sub -> acc := ops.add !acc (ops.mul a.(sub) b.(mask lxor sub)))
      (Subsets.subsets_of mask);
    res.(mask) <- !acc
  done;
  res

(** Build from a k × n matrix given as rows. *)
let create (ops : 'a Semiring.Intf.ops) (m : 'a array array) : 'a t =
  let k = Array.length m in
  let n = if k = 0 then 0 else Array.length m.(0) in
  let size =
    let s = ref 1 in
    while !s < max n 1 do
      s := !s * 2
    done;
    !s
  in
  let columns = Array.init n (fun c -> Array.init k (fun r -> m.(r).(c))) in
  let nodes = Array.make (2 * size) (neutral_vector ops k) in
  for c = 0 to n - 1 do
    nodes.(size + c) <- leaf_vector ops k columns.(c)
  done;
  for c = n to size - 1 do
    nodes.(size + c) <- neutral_vector ops k
  done;
  for i = size - 1 downto 1 do
    nodes.(i) <- merge ops k nodes.(2 * i) nodes.((2 * i) + 1)
  done;
  Obs.Counter.incr m_creates;
  { ops; k; n; size; nodes; columns }

(** Current permanent: O(1) read at the root. *)
let perm t = t.nodes.(1).(full t)

(** Permanent of the submatrix restricted to the row subset [mask]. *)
let perm_rows t mask = t.nodes.(1).(mask land full t)

(* Rebuild the leaf-to-root paths of a sorted list of leaf indices from
   the current column vectors: rebuild each touched leaf once, then merge
   the touched internal nodes level by level. Shared by batched updates
   (hot path) and {!undo_apply} (cold path). *)
let rebuild_paths t (leaves : int list) =
  List.iter (fun i -> t.nodes.(i) <- leaf_vector t.ops t.k t.columns.(i - t.size)) leaves;
  (* Halving a sorted list keeps it sorted, so each level only needs an
     adjacent-duplicate sweep — no re-sorting while climbing. *)
  let rec dedup = function
    | a :: (b :: _ as rest) -> if a = b then dedup rest else a :: dedup rest
    | l -> l
  in
  let rec climb nodes =
    match dedup (List.filter_map (fun i -> if i > 1 then Some (i / 2) else None) nodes) with
    | [] -> ()
    | parents ->
        List.iter
          (fun i -> t.nodes.(i) <- merge t.ops t.k t.nodes.(2 * i) t.nodes.((2 * i) + 1))
          parents;
        climb parents
  in
  climb leaves

(** Undo log for transactional callers: every column write records the
    prior scalar before it is overwritten. Node arrays are {e not} logged —
    the hot path stays one cons per write, and {!undo_apply} (the cold
    path) rebuilds the touched leaf-to-root paths from the restored
    columns instead, which recovers the structure even when a batch died
    with only some of its nodes remerged. *)
type 'a undo = { mutable u_cols : (int * int * 'a) list }
    (** (col, row, prior scalar), newest first *)

let undo_create () = { u_cols = [] }

(** Restore every logged column cell (newest-first, so when the same cell
    was logged twice the oldest, pre-transaction value wins), then rebuild
    the touched paths from the restored columns. *)
let undo_apply t (u : 'a undo) =
  List.iter (fun (c, r, v) -> t.columns.(c).(r) <- v) u.u_cols;
  let leaves =
    List.sort_uniq Int.compare (List.map (fun (c, _, _) -> t.size + c) u.u_cols)
  in
  rebuild_paths t leaves;
  u.u_cols <- []

let log_col undo c r prior =
  match undo with Some u -> u.u_cols <- (c, r, prior) :: u.u_cols | None -> ()

let set_impl t undo ~row ~col v =
  if row < 0 || row >= t.k then invalid_arg "Segtree.set: bad row";
  if col < 0 || col >= t.n then invalid_arg "Segtree.set: bad col";
  Obs.Counter.incr m_sets;
  log_col undo col row t.columns.(col).(row);
  t.columns.(col).(row) <- v;
  let i = ref (t.size + col) in
  t.nodes.(!i) <- leaf_vector t.ops t.k t.columns.(col);
  i := !i / 2;
  while !i >= 1 do
    t.nodes.(!i) <- merge t.ops t.k t.nodes.(2 * !i) t.nodes.((2 * !i) + 1);
    i := !i / 2
  done

(** Update a single entry (Theorem 8's weight update): O(3ᵏ log n). *)
let set t ~row ~col v = set_impl t None ~row ~col v

(** Batched entry update: apply every write, rebuild each touched leaf
    once, then merge the touched internal nodes level by level — every
    leaf-to-root path segment is recomputed exactly once even when many
    entries (or many rows of the same column) change in one batch. Cost
    O(3ᵏ · touched-nodes) instead of O(3ᵏ · updates · log n) for the
    equivalent sequence of {!set}s; later entries win on duplicate
    (row, col) targets, matching sequential application order. Every
    update is validated before any column is written, so an [invalid_arg]
    leaves the structure untouched. *)
let set_many_impl t undo (updates : (int * int * 'a) list) =
  match updates with
  | [] -> ()
  | [ (row, col, v) ] -> set_impl t undo ~row ~col v
  | _ ->
      let writes = List.length updates in
      Obs.Counter.incr m_batches;
      Obs.Counter.add m_sets writes;
      Obs.Trace.span_hot ~scope:"perm" "segtree.flush"
        ~attrs:[ ("writes", Obs.Trace.I writes); ("k", Obs.Trace.I t.k) ]
      @@ fun () ->
      List.iter
        (fun (row, col, _) ->
          if row < 0 || row >= t.k then invalid_arg "Segtree.set_many: bad row";
          if col < 0 || col >= t.n then invalid_arg "Segtree.set_many: bad col")
        updates;
      List.iter
        (fun (row, col, v) ->
          log_col undo col row t.columns.(col).(row);
          t.columns.(col).(row) <- v)
        updates;
      let leaves =
        List.sort_uniq Int.compare (List.map (fun (_, col, _) -> t.size + col) updates)
      in
      rebuild_paths t leaves

let set_many t updates = set_many_impl t None updates

(** Like {!set_many}, appending every prior cell to [u] before overwriting
    it — even a batch interrupted mid-flight stays fully covered by the
    log, so [undo_apply t u] restores the pre-batch structure exactly. *)
let set_many_logged t (u : 'a undo) updates = set_many_impl t (Some u) updates

let get t ~row ~col = t.columns.(col).(row)

(** Functor sugar over a statically-known semiring. *)
module Make (S : Semiring.Intf.BASIC) = struct
  type nonrec t = S.t t

  let ops = Semiring.Intf.ops_of_module (module S)
  let create m = create ops m
  let perm = perm
  let perm_rows = perm_rows
  let set = set
  let set_many = set_many
  let get = get
end
