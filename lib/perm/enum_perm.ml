(** Constant-delay enumerators for permanents of iterator-valued matrices
    (Lemma 23), over the column classes of Lemma 39.

    Each entry M[r,c] of a k × n matrix is a cursor over the summands
    (monomials) of a free-semiring element. The permanent

        perm(M) = Σ_{f : rows → columns injective} Π_r M[r, f(r)]

    is enumerated by picking, row by row, a column c such that (i) M[r,c]
    is nonzero and (ii) the later rows can still be matched to distinct
    free columns. Condition (ii) depends on c only through its *column
    type* (the set of rows with a nonzero entry in c), so the non-zero
    columns are kept in one array grouped by type (a counting sort, with
    2^k + 1 offsets), and a row walks the types that pass Hall's check,
    skipping within a type the at most k - 1 columns the earlier rows
    hold. All-zero columns (type 0) can never be picked and are left out.

    The enumerator is one odometer: per row, its position in the classes
    and its entry cursor. Rows go in order, types ascending, columns
    ascending within a type, and a row's entry varies slower than the rows
    below it. A movement costs O_k(1) in the matrix width. Nothing is
    multiplied: the monomial the odometer stands at is the product of its
    rows' current monomials, which the owner reads through {!row}.

    The odometer is re-aimable state: {!aim} refills it in place for a
    new matrix (O(k·n) to build the classes) and leaves it at ⊥, so one
    state serves every permanent its owner meets. Its arrays grow to the
    widest matrix met so far and are then reused; a row's entry cursor is
    made by the owner once, the first time the row is used, and re-aimed
    at each column the row takes. The entries are reached through one
    record of functions that the owner gives at {!create}, and each
    function takes the owner's matrix and cursor as arguments, so neither
    an aim nor a movement builds a closure. *)

(** How the odometer reads a matrix ['x] whose entries are cursors ['e]. *)
type ('x, 'e) entries = {
  nonzero : 'x -> int -> int -> bool;  (** is entry (r, c) non-zero? *)
  make : 'x -> 'e;  (** a fresh entry cursor, for a row used the first time *)
  aim : 'e -> 'x -> int -> int -> unit;
      (** point a cursor at the non-zero entry (r, c), at ⊥ *)
  step : 'e -> int -> bool;
      (** move a cursor forward (positive direction) or backward; false
          when it reaches ⊥ *)
}

type ('x, 'e) t = {
  entries : ('x, 'e) entries;
  mutable matrix : 'x;
  mutable k : int;
  mutable feasible : bool;  (** the permanent is non-zero (Hall's check) *)
  mutable live : bool;  (** at a monomial, not at ⊥ *)
  mutable type_of : int array;  (** per column, its type (aim scratch) *)
  mutable cols : int array;  (** the non-zero columns, grouped by type *)
  mutable start : int array;
      (** type [ty]'s columns are [cols.(start.(ty))] up to
          [cols.(start.(ty + 1) - 1)], ascending *)
  mutable free : int array;
      (** the columns of each type no row holds, the Hall scratch *)
  mutable pos : int array;  (** row r's position in [cols], -1 when it holds none *)
  mutable ty_of : int array;  (** the type of that column *)
  mutable cur : 'e array;  (** row r's entry cursor *)
}

(* Hall's condition for the rows of every subset of [sub] down to the
   empty one, within [rows_mask]: each subset's rows have at least as
   many columns as rows among the types that meet it. *)
let rec hall_from ~k counts rows_mask sub =
  sub = 0
  ||
  let cnt = ref 0 in
  for ty = 1 to (1 lsl k) - 1 do
    if ty land sub <> 0 then cnt := !cnt + counts.(ty)
  done;
  !cnt >= Subsets.popcount sub && hall_from ~k counts rows_mask ((sub - 1) land rows_mask)

(** Hall's condition: the rows of [rows_mask] can be matched to distinct
    columns when [counts.(ty)] columns of each type [ty] (row-set bitmask
    of its non-zero entries) are free. O(4^k) worst case, constant; it
    allocates nothing. *)
let hall ~k counts rows_mask = hall_from ~k counts rows_mask rows_mask

(* [a] if it has [n] slots, else a fresh array of [n] copies of [v] *)
let at_least a n v = if Array.length a >= n then a else Array.make n v

(** [aim st x ~rows ~cols] points the odometer at the [rows] × [cols]
    matrix [x], at ⊥: the column classes are rebuilt from
    [entries.nonzero x], in the arrays the state already has when they
    are wide enough. *)
let aim st x ~rows:k ~cols:n =
  if k > 16 then invalid_arg "Enum_perm: too many rows";
  let ntypes = 1 lsl k in
  st.matrix <- x;
  st.k <- k;
  st.live <- false;
  st.type_of <- at_least st.type_of n 0;
  st.start <- at_least st.start (ntypes + 1) 0;
  st.free <- at_least st.free ntypes 0;
  let type_of = st.type_of and start = st.start in
  Array.fill start 0 (ntypes + 1) 0;
  for c = 0 to n - 1 do
    let ty = ref 0 in
    for r = 0 to k - 1 do
      if st.entries.nonzero x r c then ty := !ty lor (1 lsl r)
    done;
    type_of.(c) <- !ty;
    if !ty > 0 then start.(!ty) <- start.(!ty) + 1
  done;
  (* counting sort: [start.(ty)] ends type ty, then the columns, taken in
     reverse, move it back to where ty begins *)
  for ty = 1 to ntypes - 1 do
    start.(ty) <- start.(ty) + start.(ty - 1)
  done;
  start.(ntypes) <- start.(ntypes - 1);
  st.cols <- at_least st.cols start.(ntypes) 0;
  for c = n - 1 downto 0 do
    let ty = type_of.(c) in
    if ty > 0 then begin
      start.(ty) <- start.(ty) - 1;
      st.cols.(start.(ty)) <- c
    end
  done;
  for ty = 0 to ntypes - 1 do
    st.free.(ty) <- start.(ty + 1) - start.(ty)
  done;
  st.feasible <- hall ~k st.free (ntypes - 1);
  if Array.length st.pos < k then begin
    st.pos <- Array.make k (-1);
    st.ty_of <- Array.make k 0;
    st.cur <-
      Array.init k (fun r -> if r < Array.length st.cur then st.cur.(r) else st.entries.make x)
  end
  else Array.fill st.pos 0 k (-1)

(** An odometer over the [rows] × [cols] matrix [x], at ⊥ ({!aim}). *)
let create entries x ~rows ~cols =
  let st =
    {
      entries;
      matrix = x;
      k = 0;
      feasible = false;
      live = false;
      type_of = [||];
      cols = [||];
      start = [||];
      free = [||];
      pos = [||];
      ty_of = [||];
      cur = [||];
    }
  in
  aim st x ~rows ~cols;
  st

(** Is the permanent nonzero (the boolean projection h of Lemma 23)? *)
let nonzero st = st.feasible

(** Whether the odometer is at a monomial. *)
let live st = st.live

(** Row [r]'s entry cursor. While the odometer is {!live}, every row's
    cursor is live, and the odometer's monomial is the product of their
    current monomials. *)
let row st r = st.cur.(r)

(* is position [p] held by a row before [r]? *)
let rec held st r p = r > 0 && (st.pos.(r - 1) = p || held st (r - 1) p)

(* from position [p] of type [ty] on, stepping by [dir], the first
   position no row before [r] holds, or -1 *)
let rec free_at st r ty p dir =
  if p < st.start.(ty) || p >= st.start.(ty + 1) then -1
  else if held st r p then free_at st r ty (p + dir) dir
  else p

(* row [r] takes position [p] of type [ty], its entry moved by [dir] onto
   its first (or last) monomial *)
let take st r ty p dir =
  st.pos.(r) <- p;
  st.ty_of.(r) <- ty;
  st.free.(ty) <- st.free.(ty) - 1;
  let e = st.cur.(r) in
  st.entries.aim e st.matrix r st.cols.(p);
  if not (st.entries.step e dir) then
    invalid_arg "Enum_perm: an empty entry at a non-zero position"

let release st r =
  st.free.(st.ty_of.(r)) <- st.free.(st.ty_of.(r)) + 1;
  st.pos.(r) <- -1

(* can row [r] take a column of type [ty] and leave the rows after it
   matchable? *)
let fits st r ty =
  ty land (1 lsl r) <> 0
  && st.free.(ty) > 0
  &&
  (st.free.(ty) <- st.free.(ty) - 1;
   let ok = hall ~k:st.k st.free (((1 lsl st.k) - 1) lxor ((2 lsl r) - 1)) in
   st.free.(ty) <- st.free.(ty) + 1;
   ok)

(* row [r] takes the first column, stepping by [dir], from type [ty] on
   among the types that fit; false when none is left *)
let rec seek_type st r ty dir =
  if ty <= 0 || ty >= 1 lsl st.k then false
  else if fits st r ty then begin
    let p = free_at st r ty (if dir > 0 then st.start.(ty) else st.start.(ty + 1) - 1) dir in
    take st r ty p dir;
    true
  end
  else seek_type st r (ty + dir) dir

(* move the odometer at row [r], the rows after it released; the row
   that moved, or -1 when every row has run out *)
let rec carry st r dir =
  if r < 0 then -1
  else begin
    Enum.Iter.tick ();
    if st.entries.step st.cur.(r) dir then r
    else begin
      let ty = st.ty_of.(r) and p = st.pos.(r) in
      release st r;
      let q = free_at st r ty (p + dir) dir in
      if q >= 0 then begin
        take st r ty q dir;
        r
      end
      else if seek_type st r (ty + dir) dir then r
      else carry st (r - 1) dir
    end
  end

(** One movement, forward for a positive [dir], else backward, through
    the cyclic sequence ⊥, m₁, …, m_l of the permanent's monomials
    (repetitions included), with delay O_k(input access time). *)
let move st dir =
  Enum.Iter.tick ();
  let k = st.k in
  if k = 0 then st.live <- not st.live
  else if st.feasible then begin
    let first = if dir > 0 then 1 else (1 lsl k) - 1 in
    let r =
      if st.pos.(0) < 0 then if seek_type st 0 first dir then 0 else -1 else carry st (k - 1) dir
    in
    if r < 0 then st.live <- false
    else begin
      (* Hall's check on the way down guarantees every later row a column *)
      for r' = r + 1 to k - 1 do
        ignore (seek_type st r' first dir)
      done;
      st.live <- true
    end
  end

(** Back to ⊥. *)
let reset st =
  for r = 0 to st.k - 1 do
    if st.pos.(r) >= 0 then release st r
  done;
  st.live <- false
