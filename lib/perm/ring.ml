(** Constant-update permanent for rings (Lemma 15 / Corollary 17). By
    inclusion–exclusion over the coincidence pattern of the column choices,

      perm(M) = Σ over partitions P of the rows, of
                Π over blocks B in P, of (−1)^(size B − 1) · (size B − 1)! · s_B,

    where s_B = Σ_c Π over r in B of M[r,c] is a "power sum". The structure
    maintains the 2ᵏ−1 power sums; a single-entry update touches the 2ᵏ⁻¹
    sums containing that row (constant for fixed k), and the permanent is
    recomputed from the power sums in O_k(1). *)

(* Gate-strategy counters (scope "perm"): the constant-update power-sum
   strategy of Corollary 17, and how many batched entry points amortize
   those updates. *)
let m_creates = Obs.counter ~scope:"perm" "ring_creates"
let m_sets = Obs.counter ~scope:"perm" "ring_sets"
let m_batches = Obs.counter ~scope:"perm" "ring_batches"

type 'a t = {
  ops : 'a Semiring.Intf.ops;
  neg : 'a -> 'a;
  k : int;
  n : int;
  sums : 'a array;  (** sums.(mask) = s_mask for nonzero masks *)
  columns : 'a array array;  (** n × k *)
  parts : (int * int) list list;  (** partitions as (block mask, coeff) lists *)
}

(* c · x for an integer c (|c| small, bounded by (k−1)!). *)
let rec add_times t acc c x =
  if c = 0 then acc else add_times t (t.ops.Semiring.Intf.add acc x) (c - 1) x

let int_mul t c x =
  if c >= 0 then add_times t t.ops.Semiring.Intf.zero c x
  else t.neg (add_times t t.ops.Semiring.Intf.zero (-c) x)

let block_coeff mask =
  let b = Subsets.popcount mask in
  let sign = if (b - 1) mod 2 = 0 then 1 else -1 in
  sign * Subsets.factorial (b - 1)

let column_contrib ops k col mask =
  let open Semiring.Intf in
  let acc = ref ops.one in
  for r = 0 to k - 1 do
    if mask land (1 lsl r) <> 0 then acc := ops.mul !acc col.(r)
  done;
  !acc

let create (ops : 'a Semiring.Intf.ops) (m : 'a array array) : 'a t =
  let open Semiring.Intf in
  let neg =
    match ops.neg with
    | Some n -> n
    | None -> invalid_arg "Ring permanent requires a ring (no negation available)"
  in
  let k = Array.length m in
  let n = if k = 0 then 0 else Array.length m.(0) in
  let columns = Array.init n (fun c -> Array.init k (fun r -> m.(r).(c))) in
  let sums = Array.make (1 lsl k) ops.zero in
  for mask = 1 to (1 lsl k) - 1 do
    let acc = ref ops.zero in
    Array.iter (fun col -> acc := ops.add !acc (column_contrib ops k col mask)) columns;
    sums.(mask) <- !acc
  done;
  let parts =
    List.map
      (fun blocks -> List.map (fun b -> (b, block_coeff b)) blocks)
      (Subsets.partitions k)
  in
  Obs.Counter.incr m_creates;
  { ops; neg; k; n; sums; columns; parts }

(* Π over the blocks of one partition, and Σ over the partitions, of
   the power sums [sums]. *)
let rec part_term t sums acc = function
  | [] -> acc
  | (mask, coeff) :: rest ->
      part_term t sums (t.ops.Semiring.Intf.mul acc (int_mul t coeff sums.(mask))) rest

let rec parts_sum t sums acc = function
  | [] -> acc
  | part :: rest ->
      parts_sum t sums
        (t.ops.Semiring.Intf.add acc (part_term t sums t.ops.Semiring.Intf.one part))
        rest

(* The permanent from power sums [sums]: O(Bell(k) · k), independent
   of n. *)
let perm_of t sums =
  if t.k = 0 then t.ops.Semiring.Intf.one else parts_sum t sums t.ops.Semiring.Intf.zero t.parts

(** Permanent from the maintained power sums. *)
let perm t = perm_of t t.sums

(* Move the power sums [sums] from column [old_col] to [new_col], which
   differ at most in the rows of [changed]: only the sums over masks
   meeting [changed] move. *)
let adjust_sums t sums old_col new_col changed =
  let open Semiring.Intf in
  for mask = 1 to (1 lsl t.k) - 1 do
    if mask land changed <> 0 then begin
      let old_term = column_contrib t.ops t.k old_col mask in
      let new_term = column_contrib t.ops t.k new_col mask in
      sums.(mask) <- t.ops.add (t.ops.add sums.(mask) (t.neg old_term)) new_term
    end
  done

(** Constant-time single-entry update (Corollary 17). *)
let set t ~row ~col v =
  if row < 0 || row >= t.k then invalid_arg "Ring_perm.set: bad row";
  if col < 0 || col >= t.n then invalid_arg "Ring_perm.set: bad col";
  Obs.Counter.incr m_sets;
  let old_col = Array.copy t.columns.(col) in
  t.columns.(col).(row) <- v;
  adjust_sums t t.sums old_col t.columns.(col) (1 lsl row)

let validate name t updates =
  List.iter
    (fun (row, col, _) ->
      if row < 0 || row >= t.k then invalid_arg (name ^ ": bad row");
      if col < 0 || col >= t.n then invalid_arg (name ^ ": bad col"))
    updates

(* Group [updates] by column (later writes to an entry win) and move
   [sums] by each touched column's delta — masks are visited once per
   column with the combined changed-rows delta — handing the column's
   new entries to [commit]. *)
let move_sums t sums updates ~commit =
  let rec run = function
    | [] -> ()
    | (_, col, _) :: _ as group ->
        let new_col = Array.copy t.columns.(col) and changed = ref 0 in
        let rec eat = function
          | (r, c, v) :: more when c = col ->
              new_col.(r) <- v;
              changed := !changed lor (1 lsl r);
              eat more
          | more -> more
        in
        let rest = eat group in
        adjust_sums t sums t.columns.(col) new_col !changed;
        commit col new_col;
        run rest
  in
  run (List.stable_sort (fun (_, c1, _) (_, c2, _) -> Int.compare c1 c2) updates)

(** Batched entry update: each power sum moves once per touched column
    instead of once per entry. Later entries win on duplicate (row, col)
    targets, matching sequential application order. Every update is
    validated before any column is written, so an [invalid_arg] leaves
    the structure untouched. *)
let set_many t (updates : (int * int * 'a) list) =
  match updates with
  | [] -> ()
  | [ (row, col, v) ] -> set t ~row ~col v
  | _ ->
      let writes = List.length updates in
      Obs.Counter.incr m_batches;
      Obs.Counter.add m_sets writes;
      Obs.Trace.span_hot ~scope:"perm" "ring.flush"
        ~attrs:[ ("writes", Obs.Trace.I writes); ("k", Obs.Trace.I t.k) ]
      @@ fun () ->
      validate "Ring_perm.set_many" t updates;
      move_sums t t.sums updates ~commit:(fun col new_col -> t.columns.(col) <- new_col)

let get t ~row ~col = t.columns.(col).(row)

(* the contribution of column [col] with row [row] reading [v] to the
   power sum over [mask] *)
let contrib_with ops k col mask row v =
  let open Semiring.Intf in
  let acc = ref ops.one in
  for r = 0 to k - 1 do
    if mask land (1 lsl r) <> 0 then acc := ops.mul !acc (if r = row then v else col.(r))
  done;
  !acc

(** The permanent after the entry writes [writes] without writing the
    structure: the column deltas move a copy of the power sums in the
    scratch buffer [s], and the permanent is evaluated from that copy. A
    single write, a point query's usual case, adjusts the sums over the
    masks that meet its row in place, with no copy of its column. *)
let perm_with t (s : 'a Scratch.t) (writes : (int * int * 'a) list) =
  let size = 1 lsl t.k in
  match writes with
  | [] -> perm t
  | [ (row, col, v) ] ->
      if row < 0 || row >= t.k then invalid_arg "Ring_perm.perm_with: bad row";
      if col < 0 || col >= t.n then invalid_arg "Ring_perm.perm_with: bad col";
      let sums = Scratch.vals s size and old_col = t.columns.(col) and ops = t.ops in
      Array.blit t.sums 0 sums 0 size;
      for mask = 1 to size - 1 do
        if mask land (1 lsl row) <> 0 then
          sums.(mask) <-
            ops.Semiring.Intf.add
              (ops.Semiring.Intf.add sums.(mask) (t.neg (column_contrib ops t.k old_col mask)))
              (contrib_with ops t.k old_col mask row v)
      done;
      perm_of t sums
  | _ ->
      validate "Ring_perm.perm_with" t writes;
      let sums = Scratch.vals s size in
      Array.blit t.sums 0 sums 0 size;
      move_sums t sums writes ~commit:(fun _ _ -> ());
      perm_of t sums

(** Functor sugar over a statically-known ring. *)
module Make (R : Semiring.Intf.RING) = struct
  type nonrec t = R.t t

  let ops = Semiring.Intf.ops_of_ring (module R)
  let create m = create ops m
  let perm = perm
  let set = set
  let set_many = set_many
  let get = get
  let perm_with = perm_with
end
