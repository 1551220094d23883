(** Constant-delay enumerators for permanents of iterator-valued matrices
    (Lemma 23), over the column classes of Lemma 39.

    Each entry M[r,c] of a k × n matrix is an iterator over the summands
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
    and its entry cursor, plus the products of the rows' current
    monomials. Rows go in order, types ascending, columns ascending within
    a type, and a row's entry varies slower than the rows below it. A
    row's entry cursor is built by [~entry r c] when the row takes column
    c and dropped when it leaves it, so a movement costs O_k(1) in the
    matrix width and a running enumerator holds k cursors.

    The classes are built once per [create], from [~nonzero r c]: O(k·n)
    for a k × n matrix. A permanent whose enumerator sits inside a part
    that is entered again is created again, at that cost each time. *)

type 'm t = {
  k : int;
  mul : 'm -> 'm -> 'm;
  one : 'm;
  entry : int -> int -> 'm Enum.Iter.t;
  cols : int array;  (** the non-zero columns, grouped by type *)
  start : int array;
      (** type [ty]'s columns are [cols.(start.(ty))] up to
          [cols.(start.(ty + 1) - 1)], ascending *)
}

(** [create ~mul ~one ~rows ~cols ~nonzero ~entry] is the permanent of the
    [rows] × [cols] matrix whose entry (r, c) is non-zero when [nonzero r c]
    holds, and is then enumerated by the cursor [entry r c], which must be
    non-empty. [entry] is called only at non-zero entries, and only when a
    row takes that column. *)
let create ~mul ~one ~rows:k ~cols:n ~nonzero ~entry : 'm t =
  if k > 16 then invalid_arg "Enum_perm: too many rows";
  let ntypes = 1 lsl k in
  let type_of = Array.make n 0 and start = Array.make (ntypes + 1) 0 in
  for c = 0 to n - 1 do
    let ty = ref 0 in
    for r = 0 to k - 1 do
      if nonzero r c then ty := !ty lor (1 lsl r)
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
  let cols = Array.make start.(ntypes) 0 in
  for c = n - 1 downto 0 do
    let ty = type_of.(c) in
    if ty > 0 then begin
      start.(ty) <- start.(ty) - 1;
      cols.(start.(ty)) <- c
    end
  done;
  { k; mul; one; entry; cols; start }

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

(* the number of columns of each type *)
let class_sizes t = Array.init (1 lsl t.k) (fun ty -> t.start.(ty + 1) - t.start.(ty))

(** Is the permanent nonzero (the boolean projection h of Lemma 23)? *)
let nonzero t = hall ~k:t.k (class_sizes t) ((1 lsl t.k) - 1)

(** The permanent enumerator. Yields each monomial of perm(M), repetitions
    included, with delay O_k(input access time). *)
let enumerate (t : 'm t) : 'm Enum.Iter.t =
  let k = t.k and cols = t.cols and start = t.start in
  let ntypes = 1 lsl k in
  let free = class_sizes t in
  (* free.(ty): the columns of type ty no row holds, the Hall scratch *)
  if k = 0 then Enum.Iter.singleton t.one
  else if not (hall ~k free (ntypes - 1)) then Enum.Iter.empty
  else begin
    let pos = Array.make k (-1) (* row r's position in [cols], -1 when it holds none *)
    and ty_of = Array.make k 0 (* the type of that column *)
    and cur = Array.make k Enum.Iter.empty (* its entry cursor *)
    and prod = Array.make k t.one (* the product of rows 0..r's monomials *)
    and value = ref None in
    (* is position [p] held by a row before [r]? *)
    let rec held r p = r > 0 && (pos.(r - 1) = p || held (r - 1) p) in
    (* from position [p] of type [ty] on, stepping by [dir], the first
       position no row before [r] holds, or -1 *)
    let rec free_at r ty p dir =
      if p < start.(ty) || p >= start.(ty + 1) then -1
      else if held r p then free_at r ty (p + dir) dir
      else p
    in
    (* row [r] takes position [p] of type [ty], its entry moved by [dir] *)
    let take r ty p dir =
      pos.(r) <- p;
      ty_of.(r) <- ty;
      free.(ty) <- free.(ty) - 1;
      let e = t.entry r cols.(p) in
      e.Enum.Iter.reset ();
      Enum.Iter.step dir e;
      cur.(r) <- e
    in
    let release r =
      free.(ty_of.(r)) <- free.(ty_of.(r)) + 1;
      pos.(r) <- -1;
      cur.(r) <- Enum.Iter.empty
    in
    (* can row [r] take a column of type [ty] and leave the rows after it
       matchable? *)
    let fits r ty =
      ty land (1 lsl r) <> 0
      && free.(ty) > 0
      &&
      (free.(ty) <- free.(ty) - 1;
       let ok = hall ~k free ((ntypes - 1) lxor ((2 lsl r) - 1)) in
       free.(ty) <- free.(ty) + 1;
       ok)
    in
    (* row [r] takes the first column, stepping by [dir], from type [ty]
       on among the types that fit; false when none is left *)
    let rec seek_type r ty dir =
      if ty <= 0 || ty >= ntypes then false
      else if fits r ty then begin
        let p = free_at r ty (if dir > 0 then start.(ty) else start.(ty + 1) - 1) dir in
        take r ty p dir;
        true
      end
      else seek_type r (ty + dir) dir
    in
    (* move the odometer at row [r], the rows after it released; the row
       that moved, or -1 when every row has run out *)
    let rec carry r dir =
      if r < 0 then -1
      else begin
        Enum.Iter.tick ();
        let e = cur.(r) in
        Enum.Iter.step dir e;
        match e.Enum.Iter.current () with
        | Some _ -> r
        | None ->
            let ty = ty_of.(r) and p = pos.(r) in
            release r;
            let q = free_at r ty (p + dir) dir in
            if q >= 0 then begin
              take r ty q dir;
              r
            end
            else if seek_type r (ty + dir) dir then r
            else carry (r - 1) dir
      end
    in
    let monomial r =
      match cur.(r).Enum.Iter.current () with
      | Some m -> m
      | None -> invalid_arg "Enum_perm: an empty entry at a non-zero position"
    in
    let move dir () =
      Enum.Iter.tick ();
      let first = if dir > 0 then 1 else ntypes - 1 in
      let r =
        if pos.(0) < 0 then if seek_type 0 first dir then 0 else -1 else carry (k - 1) dir
      in
      if r < 0 then value := None
      else begin
        (* Hall's check on the way down guarantees every later row a column *)
        for r' = r + 1 to k - 1 do
          ignore (seek_type r' first dir)
        done;
        for r' = r to k - 1 do
          prod.(r') <- (if r' = 0 then monomial 0 else t.mul prod.(r' - 1) (monomial r'))
        done;
        value := Some prod.(k - 1)
      end
    in
    {
      Enum.Iter.current = (fun () -> !value);
      next = move 1;
      prev = move (-1);
      reset =
        (fun () ->
          for r = 0 to k - 1 do
            if pos.(r) >= 0 then release r
          done;
          value := None);
      is_empty = (fun () -> false);
    }
  end
