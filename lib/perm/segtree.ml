(** Dynamic permanent for arbitrary semirings — the computational content
    of Lemma 10 / Lemma 11. A balanced segment tree over the columns stores
    at every node, for each subset S of the k rows, the permanent of the
    submatrix (S × columns-under-the-node); merging two children is the
    subset convolution

        node.(S) = Σ over T ⊆ S of left.(T) · right.(S minus T),

    which is identity (3) of Lemma 10 applied recursively. Building costs
    O(3ᵏ n); a single-entry update recomputes one leaf-to-root path,
    O(3ᵏ log n) — the logarithmic update of Corollary 13, tight for general
    semirings by Proposition 14. Nodes and columns are flat arrays and a
    merge writes the parent's slots in place, so an update allocates
    nothing. *)

(** The subsets T of [mask] are [sub.(off.(mask))] … [sub.(off.(mask + 1) - 1)],
    ascending (so the first is 0): 3ᵏ pairs, built once per k. *)
type pairs = { off : int array; sub : int array }

type 'a t = {
  ops : 'a Semiring.Intf.ops;
  k : int;
  n : int;
  size : int;  (** number of leaves (≥ n, a power of two) *)
  nodes : 'a array;  (** heap-ordered, 2ᵏ slots per node: [(i lsl k) + mask] *)
  columns : 'a array;  (** current entries, column-major: [(col * k) + row] *)
  pairs : pairs;  (** shared by every tree with the same k *)
}

(* Gate-strategy counters (scope "perm"): how often the logarithmic
   segment-tree strategy is instantiated and hit by updates, and how many
   batched entry points amortize those updates. *)
let m_creates = Obs.counter ~scope:"perm" "segtree_creates"
let m_sets = Obs.counter ~scope:"perm" "segtree_sets"
let m_batches = Obs.counter ~scope:"perm" "segtree_batches"

let pair_tables : (int, pairs) Hashtbl.t = Hashtbl.create 4

let pairs_for k =
  match Hashtbl.find_opt pair_tables k with
  | Some p -> p
  | None ->
      let subs = Array.init (1 lsl k) Subsets.subsets_of in
      let off = Array.make ((1 lsl k) + 1) 0 in
      Array.iteri (fun mask l -> off.(mask + 1) <- off.(mask) + List.length l) subs;
      let p = { off; sub = Array.concat (Array.to_list (Array.map Array.of_list subs)) } in
      Hashtbl.add pair_tables k p;
      p

(* Write leaf [c]'s slots from its column into the block of [dst] at
   [off]: 1 at the empty subset, the entry of row r at {r}, zero at every
   larger subset. *)
let leaf_block t dst off c =
  let open Semiring.Intf in
  Array.fill dst off (1 lsl t.k) t.ops.zero;
  dst.(off) <- t.ops.one;
  for r = 0 to t.k - 1 do
    dst.(off + (1 lsl r)) <- t.columns.((c * t.k) + r)
  done

let leaf_into t c = leaf_block t t.nodes ((t.size + c) lsl t.k) c

(* Merge a left and a right child block (each 2ᵏ slots, in [l] at [lo]
   and [r] at [ro]) into the block of [dst] at [doff]. *)
let merge_blocks t l lo r ro dst doff =
  let open Semiring.Intf in
  let k = t.k and add = t.ops.add and mul = t.ops.mul in
  let off = t.pairs.off and sub = t.pairs.sub in
  for mask = 0 to (1 lsl k) - 1 do
    (* the first subset is 0: start from its term instead of from zero *)
    let acc = ref (mul l.(lo) r.(ro + mask)) in
    for j = off.(mask) + 1 to off.(mask + 1) - 1 do
      let s = sub.(j) in
      acc := add !acc (mul l.(lo + s) r.(ro + (mask lxor s)))
    done;
    dst.(doff + mask) <- !acc
  done

(* Recompute internal node [i] in place from its two children. *)
let merge_into t i =
  let k = t.k in
  merge_blocks t t.nodes ((2 * i) lsl k) t.nodes (((2 * i) + 1) lsl k) t.nodes (i lsl k)

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
  let columns = Array.init (n * k) (fun j -> m.(j mod k).(j / k)) in
  (* every slot starts at zero; a padding leaf holds 1 at the empty subset *)
  let nodes = Array.make ((2 * size) lsl k) ops.Semiring.Intf.zero in
  let t = { ops; k; n; size; nodes; columns; pairs = pairs_for k } in
  for c = 0 to n - 1 do
    leaf_into t c
  done;
  for c = n to size - 1 do
    nodes.((size + c) lsl k) <- ops.Semiring.Intf.one
  done;
  for i = size - 1 downto 1 do
    merge_into t i
  done;
  Obs.Counter.incr m_creates;
  t

(** Current permanent: O(1) read of the root's full-mask slot. *)
let perm t = t.nodes.((1 lsl t.k) + (1 lsl t.k) - 1)

(* Rebuild the leaf-to-root paths of a sorted list of leaf indices from
   the current columns: rebuild each touched leaf once, then merge the
   touched internal nodes level by level. *)
let rebuild_paths t (leaves : int list) =
  List.iter (fun i -> leaf_into t (i - t.size)) leaves;
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
        List.iter (merge_into t) parents;
        climb parents
  in
  climb leaves

(** Update a single entry (Theorem 8's weight update): O(3ᵏ log n). *)
let set t ~row ~col v =
  if row < 0 || row >= t.k then invalid_arg "Segtree.set: bad row";
  if col < 0 || col >= t.n then invalid_arg "Segtree.set: bad col";
  Obs.Counter.incr m_sets;
  t.columns.((col * t.k) + row) <- v;
  leaf_into t col;
  let i = ref ((t.size + col) / 2) in
  while !i >= 1 do
    merge_into t !i;
    i := !i / 2
  done

(** Batched entry update: apply every write, rebuild each touched leaf
    once, then merge the touched internal nodes level by level — every
    leaf-to-root path segment is recomputed exactly once even when many
    entries (or many rows of the same column) change in one batch. Cost
    O(3ᵏ · touched-nodes) instead of O(3ᵏ · updates · log n) for the
    equivalent sequence of {!set}s; later entries win on duplicate
    (row, col) targets, matching sequential application order. Every
    update is validated before any column is written, so an [invalid_arg]
    leaves the structure untouched. *)
let set_many t (updates : (int * int * 'a) list) =
  match updates with
  | [] -> ()
  | [ (row, col, v) ] -> set t ~row ~col v
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
      List.iter (fun (row, col, v) -> t.columns.((col * t.k) + row) <- v) updates;
      let leaves =
        List.sort_uniq Int.compare (List.map (fun (_, col, _) -> t.size + col) updates)
      in
      rebuild_paths t leaves

let get t ~row ~col = t.columns.((col * t.k) + row)

(* Merge the touched nodes [idx.(0 .. len-1)] (ascending, all on one
   level, node j's block at slot j of the current half of [buf]) level by
   level up to the root, against the committed sibling nodes; [m] blocks
   per half, the halves used in turn. Returns the root block's
   full-mask slot. *)
let climb t buf idx m len =
  let k = t.k in
  let len = ref len and half = ref 0 in
  while idx.(0) > 1 do
    let src = !half * m and dst = (1 - !half) * m in
    let j = ref 0 and out = ref 0 in
    while !j < !len do
      let i = idx.(!j) in
      let doff = (dst + !out) lsl k in
      if i land 1 = 1 then begin
        merge_blocks t t.nodes ((i - 1) lsl k) buf ((src + !j) lsl k) buf doff;
        incr j
      end
      else if !j + 1 < !len && idx.(!j + 1) = i + 1 then begin
        merge_blocks t buf ((src + !j) lsl k) buf ((src + !j + 1) lsl k) buf doff;
        j := !j + 2
      end
      else begin
        merge_blocks t buf ((src + !j) lsl k) t.nodes ((i + 1) lsl k) buf doff;
        incr j
      end;
      idx.(!out) <- i / 2;
      incr out
    done;
    len := !out;
    half := 1 - !half
  done;
  buf.(((!half * m) lsl k) + (1 lsl k) - 1)

let check_target t row col =
  if row < 0 || row >= t.k then invalid_arg "Segtree.perm_with: bad row";
  if col < 0 || col >= t.n then invalid_arg "Segtree.perm_with: bad col"

(** The permanent the tree would hold after the entry writes [writes]
    (row, col, v) — at most one per target — without writing the tree:
    each touched leaf is built into a scratch block from its column with
    the writes applied, and the touched nodes are merged level by level
    into reused scratch blocks against the committed sibling nodes. One
    write merges leaf → root into two 2ᵏ blocks, O(3ᵏ log n). *)
let perm_with t (s : 'a Scratch.t) (writes : (int * int * 'a) list) =
  let bk = 1 lsl t.k in
  match writes with
  | [] -> perm t
  | [ (row, col, v) ] ->
      check_target t row col;
      let buf = Scratch.vals s (2 * bk) and idx = Scratch.ints s 1 in
      leaf_block t buf 0 col;
      buf.(1 lsl row) <- v;
      idx.(0) <- t.size + col;
      climb t buf idx 1 1
  | _ ->
      let ws = Array.of_list writes in
      Array.iter (fun (row, col, _) -> check_target t row col) ws;
      Array.sort (fun (_, c1, _) (_, c2, _) -> Int.compare c1 c2) ws;
      let m = Array.length ws in
      let buf = Scratch.vals s (2 * m * bk) and idx = Scratch.ints s m in
      (* one block per distinct column, holding every write to it *)
      let len = ref 0 in
      Array.iteri
        (fun j (row, col, v) ->
          let _, prev, _ = ws.(max 0 (j - 1)) in
          if j = 0 || col <> prev then begin
            leaf_block t buf (!len * bk) col;
            idx.(!len) <- t.size + col;
            incr len
          end;
          buf.(((!len - 1) * bk) + (1 lsl row)) <- v)
        ws;
      climb t buf idx m !len

(** Functor sugar over a statically-known semiring. *)
module Make (S : Semiring.Intf.BASIC) = struct
  type nonrec t = S.t t

  let ops = Semiring.Intf.ops_of_module (module S)
  let create m = create ops m
  let perm = perm
  let set = set
  let set_many = set_many
  let get = get
  let perm_with = perm_with
end
