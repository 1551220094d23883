(** Constant-update permanent for finite semirings (Lemma 18 /
    Corollary 20). The permanent of a k × n matrix M depends only on the
    number of occurrences of each tuple c ∈ Sᵏ as a column of M: grouping
    the injective row→column assignments by the column *type* each row
    lands on,

      perm(M) = Σ over g : rows → types of
                  (Π over types t of P(n_t, size of g⁻¹(t))) · Π_r g(r)[r],

    where P(n, j) = n(n−1)⋯(n−j+1) counts ordered picks of distinct columns
    within a type. The integer scalings c · s exploit the lasso structure
    of the sequence (m · s)_m (Claim 2): it is ultimately periodic with
    preperiod and period at most the semiring size, so c · s is computed
    from c's saturated value and c mod lcm-of-periods in O(1) for a fixed
    semiring. Updates adjust two counters; queries are independent of n. *)

type 'a ctx = {
  ops : 'a Semiring.Intf.ops;
  elems : 'a array;
  lassos : (int * int * 'a array) array;  (** per element: preperiod, period, prefix *)
  modulus : int;  (** lcm of all periods *)
}

let index_of ctx x =
  let open Semiring.Intf in
  let n = Array.length ctx.elems in
  let i = ref 0 in
  while !i < n && not (ctx.ops.equal ctx.elems.(!i) x) do
    incr i
  done;
  if !i >= n then invalid_arg "Finite_perm: value not in elements";
  !i

let make_ctx (ops : 'a Semiring.Intf.ops) : 'a ctx =
  let open Semiring.Intf in
  let elems =
    match ops.elements with
    | Some es -> Array.of_list es
    | None -> invalid_arg "Finite permanent requires a finite semiring"
  in
  let lasso s =
    (* walk zero, s, 2s, ... until a repeat; O(|S|²) once per create *)
    let seq = ref [ ops.zero ] in
    let rec find cur len =
      let next = ops.add cur s in
      let arr = Array.of_list (List.rev !seq) in
      let rec scan j =
        if j >= Array.length arr then -1 else if ops.equal arr.(j) next then j else scan (j + 1)
      in
      let j = scan 0 in
      if j >= 0 then (j, len - j, arr)
      else begin
        seq := next :: !seq;
        find next (len + 1)
      end
    in
    find ops.zero 1
  in
  let lassos = Array.map lasso elems in
  let rec gcd a b = if b = 0 then a else gcd b (a mod b) in
  let lcm a b = a / gcd a b * b in
  let modulus = Array.fold_left (fun m (_, per, _) -> lcm m per) 1 lassos in
  { ops; elems; lassos; modulus }

(* Counts may exceed machine range, so [scale] takes one as a saturated
   low part (enough to compare with preperiods) plus its value mod
   [ctx.modulus]. *)
let cap = 1 lsl 40

(* the saturated product of two saturated low parts; zero absorbs *)
let low_mul a b =
  if a = 0 || b = 0 then 0 else if a >= cap || b >= cap || a * b >= cap then cap else a * b

(* c · s for the count c with saturated low part [low] and residue [modm],
   using the lasso of s *)
let scale_parts ctx ~low ~modm (s : 'a) : 'a =
  let ei = index_of ctx s in
  let pre, per, prefix = ctx.lassos.(ei) in
  if low < cap && low < pre + per then prefix.(low)
  else begin
    let r = (((modm - pre) mod per) + per) mod per in
    prefix.(pre + r)
  end

(** c · s for a non-negative count c. *)
let scale ctx c s = scale_parts ctx ~low:(min c cap) ~modm:(c mod ctx.modulus) s

type 'a t = {
  ctx : 'a ctx;
  k : int;
  n : int;
  counts : int array;  (** per column-type index *)
  col_type : int array;  (** column → type index *)
  entries : int array array;  (** column → element indices, n × k *)
  present : int array;  (** [perm]'s scratch: the types with a non-zero count *)
  assignment : int array;  (** [perm]'s scratch: row → type, length k *)
}

let ntypes ctx k =
  let ne = Array.length ctx.elems in
  let rec pow acc i = if i = 0 then acc else pow (acc * ne) (i - 1) in
  let t = pow 1 k in
  if t > 1 lsl 22 then invalid_arg "Finite_perm: |S|^k too large";
  t

(* The type of a column of element indices: row 0 is the least
   significant base-|S| digit. *)
let type_index ctx (col : int array) =
  let ne = Array.length ctx.elems in
  let acc = ref 0 in
  for r = Array.length col - 1 downto 0 do
    acc := (!acc * ne) + col.(r)
  done;
  !acc

let type_entry ctx tidx r =
  let ne = Array.length ctx.elems in
  let t = ref tidx in
  for _ = 1 to r do
    t := !t / ne
  done;
  ctx.elems.(!t mod ne)

(* Gate-strategy counters (scope "perm"): the constant-update counting
   strategy of Corollary 20, and how many batched entry points amortize
   those updates. *)
let m_creates = Obs.counter ~scope:"perm" "finite_creates"
let m_sets = Obs.counter ~scope:"perm" "finite_sets"
let m_batches = Obs.counter ~scope:"perm" "finite_batches"

let create (ops : 'a Semiring.Intf.ops) (m : 'a array array) : 'a t =
  let ctx = make_ctx ops in
  let k = Array.length m in
  let n = if k = 0 then 0 else Array.length m.(0) in
  let counts = Array.make (ntypes ctx k) 0 in
  let entries = Array.init n (fun c -> Array.init k (fun r -> index_of ctx m.(r).(c))) in
  let col_type = Array.map (type_index ctx) entries in
  Array.iter (fun t -> counts.(t) <- counts.(t) + 1) col_type;
  Obs.Counter.incr m_creates;
  {
    ctx;
    k;
    n;
    counts;
    col_type;
    entries;
    present = Array.make (Array.length counts) 0;
    assignment = Array.make k 0;
  }

(* Move column [col]'s counter to the type of its current entries. *)
let retype t col =
  let old_t = t.col_type.(col) and new_t = type_index t.ctx t.entries.(col) in
  if new_t <> old_t then begin
    t.counts.(old_t) <- t.counts.(old_t) - 1;
    t.counts.(new_t) <- t.counts.(new_t) + 1;
    t.col_type.(col) <- new_t
  end

(** O(1)-per-entry update (Corollary 20). *)
let set t ~row ~col v =
  if row < 0 || row >= t.k then invalid_arg "Finite_perm.set: bad row";
  if col < 0 || col >= t.n then invalid_arg "Finite_perm.set: bad col";
  let vi = index_of t.ctx v in
  Obs.Counter.incr m_sets;
  t.entries.(col).(row) <- vi;
  retype t col

(** Batched entry update: write every entry, then move each touched
    column's type counter once instead of once per entry. Later
    entries win on duplicate (row, col) targets, matching sequential
    application order. Every update — bounds {e and} element membership —
    is validated before any column is written, so an [invalid_arg] leaves
    the structure untouched. *)
let set_many t (updates : (int * int * 'a) list) =
  match updates with
  | [] -> ()
  | [ (row, col, v) ] -> set t ~row ~col v
  | _ ->
      let writes = List.length updates in
      Obs.Counter.incr m_batches;
      Obs.Counter.add m_sets writes;
      Obs.Trace.span_hot ~scope:"perm" "finite.flush"
        ~attrs:[ ("writes", Obs.Trace.I writes); ("k", Obs.Trace.I t.k) ]
      @@ fun () ->
      let resolved =
        List.map
          (fun (row, col, v) ->
            if row < 0 || row >= t.k then invalid_arg "Finite_perm.set_many: bad row";
            if col < 0 || col >= t.n then invalid_arg "Finite_perm.set_many: bad col";
            (row, col, index_of t.ctx v))
          updates
      in
      List.iter (fun (row, col, vi) -> t.entries.(col).(row) <- vi) resolved;
      List.iter (retype t)
        (List.sort_uniq Int.compare (List.map (fun (_, col, _) -> col) resolved))

let get t ~row ~col = t.ctx.elems.(t.entries.(col).(row))

(* The count of type [tidx] after the adjustments [adj]: [nadj]
   (type, delta) pairs, flat. *)
let adjusted_count t adj nadj tidx =
  let c = ref t.counts.(tidx) in
  for i = 0 to nadj - 1 do
    if adj.(2 * i) = tidx then c := !c + adj.((2 * i) + 1)
  done;
  !c

(* The permanent from the counts as adjusted by [adj] (see
   {!adjusted_count}): the sum over the maps g from rows to present
   types, enumerated as an odometer over [t.assignment] (row → index
   into [t.present], the last row turning fastest). The rows of type t
   pick distinct columns of that type in P(n_t, |g⁻¹(t)|) ways, the
   product over rows of n_t minus the earlier rows of the same type.
   Allocates nothing beyond the semiring's own values. *)
let perm_adjusted t adj nadj =
  let open Semiring.Intf in
  let ops = t.ctx.ops and modulus = t.ctx.modulus in
  let present = t.present and pos = t.assignment in
  let np = ref 0 in
  for tidx = 0 to Array.length t.counts - 1 do
    if adjusted_count t adj nadj tidx > 0 then begin
      present.(!np) <- tidx;
      incr np
    end
  done;
  let np = !np in
  let acc = ref ops.zero in
  if t.k = 0 || np > 0 then begin
    Array.fill pos 0 t.k 0;
    let more = ref true in
    while !more do
      (* the term of the map in [pos] *)
      let low = ref 1 and modm = ref (1 mod modulus) and entry_prod = ref ops.one in
      for r = 0 to t.k - 1 do
        let tidx = present.(pos.(r)) in
        let ways = ref (adjusted_count t adj nadj tidx) in
        for r' = 0 to r - 1 do
          if present.(pos.(r')) = tidx then decr ways
        done;
        let ways = max 0 !ways in
        low := low_mul !low ways;
        modm := !modm * (ways mod modulus) mod modulus;
        entry_prod := ops.mul !entry_prod (type_entry t.ctx tidx r)
      done;
      acc := ops.add !acc (scale_parts t.ctx ~low:!low ~modm:!modm !entry_prod);
      (* the next map: bump the last row that has not wrapped *)
      let r = ref (t.k - 1) in
      while !r >= 0 && pos.(!r) = np - 1 do
        pos.(!r) <- 0;
        decr r
      done;
      if !r < 0 then more := false else pos.(!r) <- pos.(!r) + 1
    done
  end;
  !acc

(** Permanent from the counts: independent of n. *)
let perm t = perm_adjusted t [||] 0

(* The element index of row [r] of column [col] after [writes], whose
   last write to that entry wins; [ei] when none writes it. *)
let rec entry_after ctx writes col r ei =
  match writes with
  | [] -> ei
  | (r', c', v) :: rest ->
      entry_after ctx rest col r (if c' = col && r' = r then index_of ctx v else ei)

let rec writes_column col = function
  | [] -> false
  | (_, c, _) :: rest -> c = col || writes_column col rest

(* Fill [adj] from [nadj] on with the count moves of the columns that
   [rest] (a suffix of [writes]) touches, each column once, at its last
   write; returns the new pair count. *)
let rec adjust t adj writes nadj rest =
  match rest with
  | [] -> nadj
  | (row, col, _) :: rest ->
      if row < 0 || row >= t.k then invalid_arg "Finite_perm.perm_with: bad row";
      if col < 0 || col >= t.n then invalid_arg "Finite_perm.perm_with: bad col";
      if writes_column col rest then adjust t adj writes nadj rest
      else begin
        let ne = Array.length t.ctx.elems and e = t.entries.(col) in
        let ty = ref 0 in
        for r = t.k - 1 downto 0 do
          ty := (!ty * ne) + entry_after t.ctx writes col r e.(r)
        done;
        adj.(2 * nadj) <- t.col_type.(col);
        adj.((2 * nadj) + 1) <- -1;
        adj.((2 * nadj) + 2) <- !ty;
        adj.((2 * nadj) + 3) <- 1;
        adjust t adj writes (nadj + 2) rest
      end

(** The permanent after the entry writes [writes] (row, col, v) without
    writing the structure: each touched column moves one count from its
    type to its new type, and the permanent is read through those
    ≤ 2·writes adjusted counts kept in a scratch buffer. *)
let perm_with t (s : 'a Scratch.t) (writes : (int * int * 'a) list) =
  let adj = Scratch.ints s (4 * List.length writes) in
  perm_adjusted t adj (adjust t adj writes 0 writes)

(** Functor sugar over a statically-known finite semiring. *)
module Make (S : Semiring.Intf.FINITE) = struct
  type nonrec t = S.t t

  let ops = Semiring.Intf.ops_of_finite (module S)
  let create m = create ops m
  let perm = perm
  let set = set
  let set_many = set_many
  let get = get
  let perm_with = perm_with
end
