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
  let rec go i =
    if i >= n then invalid_arg "Finite_perm: value not in elements"
    else if ctx.ops.equal ctx.elems.(i) x then i
    else go (i + 1)
  in
  go 0

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

(* Counts that may exceed machine range: saturated low part (enough to
   compare with preperiods) plus the value mod [ctx.modulus]. *)
type count = { low : int; modm : int }

let cap = 1 lsl 40
let count_of_int ctx n = { low = min n cap; modm = n mod ctx.modulus }

let count_mul ctx a b =
  {
    low = (if a.low >= cap || b.low >= cap || a.low * b.low >= cap then cap else a.low * b.low);
    modm = a.modm * b.modm mod ctx.modulus;
  }

(** c · s using the lasso of s. *)
let scale ctx (c : count) (s : 'a) : 'a =
  let ei = index_of ctx s in
  let pre, per, prefix = ctx.lassos.(ei) in
  if c.low < cap && c.low < pre + per then prefix.(c.low)
  else begin
    let r = (((c.modm - pre) mod per) + per) mod per in
    prefix.(pre + r)
  end

type 'a t = {
  ctx : 'a ctx;
  k : int;
  n : int;
  counts : int array;  (** per column-type index *)
  col_type : int array;  (** column → type index *)
  entries : int array array;  (** column → element indices, n × k *)
}

let ntypes ctx k =
  let ne = Array.length ctx.elems in
  let rec pow acc i = if i = 0 then acc else pow (acc * ne) (i - 1) in
  let t = pow 1 k in
  if t > 1 lsl 22 then invalid_arg "Finite_perm: |S|^k too large";
  t

let type_index ctx (col : int array) =
  let ne = Array.length ctx.elems in
  Array.fold_right (fun ei acc -> (acc * ne) + ei) col 0

let type_entry ctx tidx r =
  let ne = Array.length ctx.elems in
  let rec go t i = if i = 0 then t mod ne else go (t / ne) (i - 1) in
  ctx.elems.(go tidx r)

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
  { ctx; k; n; counts; col_type; entries }

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

(** Permanent from the counts: independent of n. *)
let perm t =
  let open Semiring.Intf in
  let ops = t.ctx.ops in
  if t.k = 0 then ops.one
  else begin
    let present = ref [] in
    Array.iteri (fun tidx c -> if c > 0 then present := tidx :: !present) t.counts;
    let present = !present in
    let acc = ref ops.zero in
    let assignment = Array.make t.k 0 in
    let rec go r =
      if r = t.k then begin
        let mult = Hashtbl.create 8 in
        Array.iter
          (fun tidx ->
            Hashtbl.replace mult tidx (1 + Option.value ~default:0 (Hashtbl.find_opt mult tidx)))
          assignment;
        let ways = ref (count_of_int t.ctx 1) in
        Hashtbl.iter
          (fun tidx j ->
            let n_t = t.counts.(tidx) in
            for i = 0 to j - 1 do
              ways := count_mul t.ctx !ways (count_of_int t.ctx (max 0 (n_t - i)))
            done)
          mult;
        let entry_prod = ref ops.one in
        Array.iteri
          (fun r tidx -> entry_prod := ops.mul !entry_prod (type_entry t.ctx tidx r))
          assignment;
        acc := ops.add !acc (scale t.ctx !ways !entry_prod)
      end
      else
        List.iter
          (fun tidx ->
            assignment.(r) <- tidx;
            go (r + 1))
          present
    in
    go 0;
    !acc
  end

(** Functor sugar over a statically-known finite semiring. *)
module Make (S : Semiring.Intf.FINITE) = struct
  type nonrec t = S.t t

  let ops = Semiring.Intf.ops_of_finite (module S)
  let create m = create ops m
  let perm = perm
  let set = set
  let set_many = set_many
  let get = get
end
