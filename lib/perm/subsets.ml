(** Small-set combinatorics over bitmask-encoded subsets of [k] rows,
    shared by the permanent algorithms (k is the fixed number of rows of a
    permanent gate, so everything here is O_k(1)-sized). *)

let popcount mask =
  let rec go m acc = if m = 0 then acc else go (m lsr 1) (acc + (m land 1)) in
  go mask 0

(** All subsets of [mask], including 0 and [mask] itself. *)
let subsets_of mask =
  let rec go sub acc = if sub = 0 then 0 :: acc else go ((sub - 1) land mask) (sub :: acc) in
  go mask []

(** All set partitions of {0, …, k−1}, each partition a list of masks. *)
let partitions k =
  let rec go remaining =
    if remaining = 0 then [ [] ]
    else begin
      (* the block containing the lowest remaining element *)
      let low = remaining land -remaining in
      let rest = remaining lxor low in
      List.concat_map
        (fun sub ->
          let block = low lor sub in
          List.map (fun p -> block :: p) (go (remaining lxor block)))
        (subsets_of rest)
    end
  in
  go ((1 lsl k) - 1)

let factorial n =
  let rec go acc n = if n <= 1 then acc else go (acc * n) (n - 1) in
  go 1 n
