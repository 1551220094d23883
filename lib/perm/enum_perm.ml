(** Constant-delay enumerators for permanents of iterator-valued matrices
    (Lemma 23), backed by the column-class lists of Lemma 39.

    Each entry M[r,c] of an R × C matrix is an iterator over the summands
    (monomials) of a free-semiring element. The permanent

        perm(M) = Σ_{f : R → C injective} Π_r M[r, f(r)]

    is enumerated by recursively picking, for the first remaining row r, a
    column c such that (i) M[r,c] is nonzero and (ii) the rest of the rows
    can still be matched to distinct remaining columns. Condition (ii)
    depends on c only through its boolean *column type* (the set of rows
    with a nonzero entry in c), so valid columns come from doubly-linked
    per-type lists with at most k excluded columns skipped on the fly —
    everything a [next] does is O_k(1) in the matrix width.

    All-zero columns (type 0) can never be picked, so they are kept out of
    the lists: building the lists costs the non-zero columns only.

    Updates to the nonzero pattern move a column between type lists in
    O(1); iterators must be created after the last update (enumeration
    phases and update phases alternate, as in Theorem 22). *)

type 'm t = {
  k : int;
  n : int;
  mul : 'm -> 'm -> 'm;
  one : 'm;
  entries : 'm Enum.Iter.t array array;  (** k × n *)
  type_of : int array;  (** column → row-set bitmask of nonzero entries *)
  lists : int Enum.Dll.t array;  (** per type, the columns of that type *)
  nodes : int Enum.Dll.node array;  (** column → its node *)
}

(* The node of a column of type 0: all-zero columns are never in a list,
   since no row can pick them. *)
let unlinked : int Enum.Dll.node = { Enum.Dll.value = -1; prev = None; next = None; owner = -1 }

let create ~mul ~one (entries : 'm Enum.Iter.t array array) : 'm t =
  let k = Array.length entries in
  if k > 16 then invalid_arg "Enum_perm: too many rows";
  let n = if k = 0 then 0 else Array.length entries.(0) in
  let ntypes = 1 lsl k in
  let lists = Array.init ntypes (fun _ -> Enum.Dll.create ()) in
  let type_of =
    Array.init n (fun c ->
        let mask = ref 0 in
        for r = 0 to k - 1 do
          if not (Enum.Iter.is_empty entries.(r).(c)) then mask := !mask lor (1 lsl r)
        done;
        !mask)
  in
  let nodes =
    Array.init n (fun c ->
        if type_of.(c) = 0 then unlinked else Enum.Dll.push_back lists.(type_of.(c)) c)
  in
  { k; n; mul; one; entries; type_of; lists; nodes }

(** Replace an entry's iterator (a weight update). O(1) beyond recomputing
    the column's type bit; a column enters or leaves the lists when it
    turns non-zero or all-zero. *)
let set_entry t ~row ~col it =
  t.entries.(row).(col) <- it;
  let old_type = t.type_of.(col) in
  let bit = 1 lsl row in
  let new_type =
    if Enum.Iter.is_empty it then old_type land lnot bit else old_type lor bit
  in
  if new_type <> old_type then begin
    if old_type <> 0 then Enum.Dll.remove t.lists.(old_type) t.nodes.(col);
    t.type_of.(col) <- new_type;
    t.nodes.(col) <-
      (if new_type = 0 then unlinked else Enum.Dll.push_back t.lists.(new_type) col)
  end

(** Hall's condition: the rows of [rows_mask] can be matched to distinct
    columns when [avail ty] columns of each type [ty] (row-set bitmask of
    its non-zero entries) are free. Counts need only reach k, so this is
    O(4^k) worst case — constant. *)
let hall ~k ~avail rows_mask =
  (* every non-empty subset of rows_mask, from rows_mask down *)
  let rec ok sub =
    sub = 0
    ||
    let cnt = ref 0 in
    for ty = 1 to (1 lsl k) - 1 do
      if ty land sub <> 0 then cnt := !cnt + max 0 (avail ty)
    done;
    !cnt >= Subsets.popcount sub && ok ((sub - 1) land rows_mask)
  in
  ok rows_mask

(* Can the rows of [rows_mask] be matched to distinct columns outside the
   ≤ k excluded ones? *)
let feasible t rows_mask (excluded : int list) =
  rows_mask = 0
  ||
  (* available columns per type, discounted by exclusions *)
  let avail ty =
    let base = min (Enum.Dll.length t.lists.(ty)) (t.k + List.length excluded) in
    base - List.length (List.filter (fun c -> t.type_of.(c) = ty) excluded)
  in
  hall ~k:t.k ~avail rows_mask

(* Iterator over valid columns for row [r] given remaining rows and
   exclusions: concatenation over types ty ∋ r such that choosing a column
   of that type leaves the rest feasible; within a type, walk the list
   skipping excluded columns. *)
let valid_columns t ~row ~rest_mask ~excluded =
  let parts = ref [] in
  for ty = (1 lsl t.k) - 1 downto 0 do
    if ty land (1 lsl row) <> 0 && not (Enum.Dll.is_empty t.lists.(ty)) then begin
      (* simulate excluding one column of this type *)
      let has_free =
        Enum.Dll.length t.lists.(ty) > List.length (List.filter (fun c -> t.type_of.(c) = ty) excluded)
      in
      if has_free then begin
        (* pick any free column of this type as representative *)
        let rec rep node =
          match node with
          | None -> None
          | Some (n : int Enum.Dll.node) ->
              if List.mem n.Enum.Dll.value excluded then rep n.Enum.Dll.next
              else Some n.Enum.Dll.value
        in
        match rep (Enum.Dll.first t.lists.(ty)) with
        | None -> ()
        | Some c0 ->
            if feasible t rest_mask (c0 :: excluded) then begin
              let base = Enum.Iter.of_dll t.lists.(ty) in
              (* skip excluded columns: at most k of them, constant work *)
              let skipping dir () =
                (match dir with `F -> base.Enum.Iter.next () | `B -> base.Enum.Iter.prev ());
                let guard = ref (List.length excluded + 1) in
                let rec skip () =
                  match base.Enum.Iter.current () with
                  | Some c when List.mem c excluded && !guard > 0 ->
                      decr guard;
                      (match dir with `F -> base.Enum.Iter.next () | `B -> base.Enum.Iter.prev ());
                      skip ()
                  | _ -> ()
                in
                skip ()
              in
              let filtered =
                {
                  base with
                  Enum.Iter.next = skipping `F;
                  prev = skipping `B;
                  is_empty = (fun () -> false);
                }
              in
              parts := filtered :: !parts
            end
      end
    end
  done;
  Enum.Iter.concat !parts

(** The permanent enumerator. Yields each monomial of perm(M), repetitions
    included, with delay O_k(input access time). *)
let enumerate (t : 'm t) : 'm Enum.Iter.t =
  let rec level rows_mask excluded : 'm Enum.Iter.t =
    if rows_mask = 0 then Enum.Iter.singleton t.one
    else begin
      let row =
        let rec low r = if rows_mask land (1 lsl r) <> 0 then r else low (r + 1) in
        low 0
      in
      let rest = rows_mask lxor (1 lsl row) in
      let cols = valid_columns t ~row ~rest_mask:rest ~excluded in
      Enum.Iter.map
        (fun (_c, (m_entry, m_rest)) -> t.mul m_entry m_rest)
        (Enum.Iter.dep_product cols (fun c ->
             Enum.Iter.product t.entries.(row).(c) (level rest (c :: excluded))))
    end
  in
  if t.k = 0 then Enum.Iter.singleton t.one
  else if not (feasible t ((1 lsl t.k) - 1) []) then Enum.Iter.empty
  else level ((1 lsl t.k) - 1) []

(** Is the permanent nonzero (the boolean projection h of Lemma 23)? *)
let nonzero t = feasible t ((1 lsl t.k) - 1) []
