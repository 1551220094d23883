(* Tests for the permanent algorithms of Section 4: all four strategies
   must agree with the naive enumeration baseline, and the dynamic
   structures must track updates. *)

open Semiring

module Nat_static = Perm.Static.Make (Instances.Nat)
module Nat_naive = Perm.Naive.Make (Instances.Nat)
module Nat_seg = Perm.Segtree.Make (Instances.Nat)
module Int_ring_perm = Perm.Ring.Make (Instances.Int_ring)
module Int_static = Perm.Static.Make (Instances.Int_ring)
module Int_naive = Perm.Naive.Make (Instances.Int_ring)
module Trop_static = Perm.Static.Make (Tropical.Min_plus)
module Trop_naive = Perm.Naive.Make (Tropical.Min_plus)
module Trop_seg = Perm.Segtree.Make (Tropical.Min_plus)
module Bool_fin = Perm.Finite.Make (Instances.Bool)
module Bool_naive = Perm.Naive.Make (Instances.Bool)
module Z4 = Zmod.Z4
module Z4_fin = Perm.Finite.Make (Z4)
module Z4_naive = Perm.Naive.Make (Z4)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let matrix_gen ~k ~maxn ~maxv =
  QCheck.make
    ~print:(fun m ->
      String.concat "\n"
        (Array.to_list (Array.map (fun row -> String.concat " " (Array.to_list (Array.map string_of_int row))) m)))
    QCheck.Gen.(
      int_range 0 maxn >>= fun n ->
      array_size (return k) (array_size (return n) (int_range 0 maxv)))

let known_values () =
  (* perm of 1xN is the sum of entries *)
  check_int "1x3" 6 (Nat_static.perm [| [| 1; 2; 3 |] |]);
  (* classic 2x2: ad' + bc' style: a1 b2 + a2 b1 *)
  check_int "2x2" (1 * 4 + 2 * 3) (Nat_static.perm [| [| 1; 2 |]; [| 3; 4 |] |]);
  (* paper example: 3-row permanent = sum over distinct i,j,k of ai bj ck *)
  let m = [| [| 1; 1; 1 |]; [| 1; 1; 1 |]; [| 1; 1; 1 |] |] in
  check_int "3x3 all ones = 3!" 6 (Nat_static.perm m);
  check_int "k=0" 1 (Nat_static.perm [||]);
  check_int "k > n is zero" 0 (Nat_static.perm [| [| 1 |]; [| 2 |] |])

let increasing_values () =
  (* perm' only counts increasing assignments: for all-ones, C(n, k) *)
  let m = Array.make 2 [| 1; 1; 1; 1 |] in
  check_int "perm' all ones = C(4,2)" 6 (Nat_static.perm_increasing m);
  check_int "perm = sum over orders of perm'" (Nat_static.perm m)
    (2 * Nat_static.perm_increasing m)

let static_vs_naive k =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make
       ~name:(Printf.sprintf "static perm = naive (k=%d)" k)
       ~count:50 (matrix_gen ~k ~maxn:7 ~maxv:5)
       (fun m -> Nat_static.perm m = Nat_naive.perm m))

let segtree_vs_naive k =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make
       ~name:(Printf.sprintf "segtree perm = naive (k=%d)" k)
       ~count:50 (matrix_gen ~k ~maxn:7 ~maxv:5)
       (fun m ->
         let t = Nat_seg.create m in
         Nat_seg.perm t = Nat_naive.perm m))

let ring_vs_naive k =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make
       ~name:(Printf.sprintf "ring power-sum perm = naive (k=%d)" k)
       ~count:50 (matrix_gen ~k ~maxn:7 ~maxv:5)
       (fun m ->
         let t = Int_ring_perm.create m in
         Int_ring_perm.perm t = Int_naive.perm m))

let finite_bool_vs_naive k =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make
       ~name:(Printf.sprintf "finite counting perm = naive, bool (k=%d)" k)
       ~count:50 (matrix_gen ~k ~maxn:7 ~maxv:1)
       (fun m ->
         let bm = Array.map (Array.map (fun v -> v = 1)) m in
         let t = Bool_fin.create bm in
         Bool_fin.perm t = Bool_naive.perm bm))

let finite_z4_vs_naive k =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make
       ~name:(Printf.sprintf "finite counting perm = naive, Z4 (k=%d)" k)
       ~count:50 (matrix_gen ~k ~maxn:7 ~maxv:3)
       (fun m ->
         let t = Z4_fin.create m in
         Z4_fin.perm t = Z4_naive.perm m))

let tropical_matches () =
  (* min-plus permanent = minimum-cost assignment *)
  let m =
    Array.map (Array.map (fun v -> Instances.Fin v)) [| [| 5; 1; 9 |]; [| 2; 8; 3 |] |]
  in
  let expected = Trop_naive.perm m in
  check_bool "static tropical" true (Instances.equal_extended expected (Trop_static.perm m));
  let t = Trop_seg.create m in
  check_bool "segtree tropical" true (Instances.equal_extended expected (Trop_seg.perm t));
  check_bool "value is min assignment" true (Instances.equal_extended (Instances.Fin 3) expected)

(* updates tracked by each dynamic structure *)
let update_agreement =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"dynamic structures track updates" ~count:50
       QCheck.(
         pair (matrix_gen ~k:3 ~maxn:6 ~maxv:4)
           (small_list (triple (int_range 0 2) (int_range 0 5) (int_range 0 4))))
       (fun (m, updates) ->
         QCheck.assume (Array.length m.(0) > 0);
         let n = Array.length m.(0) in
         let seg = Nat_seg.create m in
         let ring = Int_ring_perm.create m in
         let cur = Array.map Array.copy m in
         List.iter
           (fun (r, c, v) ->
             let c = c mod n in
             cur.(r).(c) <- v;
             Nat_seg.set seg ~row:r ~col:c v;
             Int_ring_perm.set ring ~row:r ~col:c v)
           updates;
         let expected = Nat_naive.perm cur in
         Nat_seg.perm seg = expected && Int_ring_perm.perm ring = expected))

(* batched entry updates: one set_many call must leave every dynamic
   structure in the same state as sequential sets (later entries win on
   duplicate targets), judged against the naive baseline *)
let set_many_agreement =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"set_many = sequential sets" ~count:50
       QCheck.(
         pair (matrix_gen ~k:3 ~maxn:6 ~maxv:3)
           (small_list (triple (int_range 0 2) (int_range 0 5) (int_range 0 3))))
       (fun (m, updates) ->
         QCheck.assume (Array.length m.(0) > 0);
         let n = Array.length m.(0) in
         let updates = List.map (fun (r, c, v) -> (r, c mod n, v)) updates in
         let cur = Array.map Array.copy m in
         List.iter (fun (r, c, v) -> cur.(r).(c) <- v) updates;
         let seg = Nat_seg.create m in
         let ring = Int_ring_perm.create m in
         let z4 = Z4_fin.create m in
         Nat_seg.set_many seg updates;
         Int_ring_perm.set_many ring updates;
         Z4_fin.set_many z4 updates;
         Nat_seg.perm seg = Nat_naive.perm cur
         && Int_ring_perm.perm ring = Int_naive.perm cur
         && Z4_fin.perm z4 = Z4_naive.perm cur))

(* what-if reads: [perm_with] must return the permanent the writes
   would give (judged against the naive baseline) and leave the
   structure untouched — same permanent, same entries. Targets are
   distinct, as a dynamic circuit's wave gives them; n runs over 1..12
   so several writes meet at inner segment-tree nodes. *)
let perm_with_agreement k =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:(Printf.sprintf "perm_with = set_many on a copy, k=%d" k) ~count:80
       QCheck.(
         pair (matrix_gen ~k ~maxn:12 ~maxv:3)
           (list_of_size (Gen.int_range 1 6)
              (triple (int_range 0 (k - 1)) (int_range 0 11) (int_range 0 3))))
       (fun (m, writes) ->
         QCheck.assume (Array.length m.(0) > 0);
         let n = Array.length m.(0) in
         let writes =
           List.fold_left
             (fun acc (r, c, v) ->
               let c = c mod n in
               (r, c, v) :: List.filter (fun (r', c', _) -> (r', c') <> (r, c)) acc)
             [] writes
         in
         let cur = Array.map Array.copy m in
         List.iter (fun (r, c, v) -> cur.(r).(c) <- v) writes;
         let entries get = Array.init k (fun r -> Array.init n (fun c -> get ~row:r ~col:c)) in
         let scratch = Perm.Scratch.create 0 in
         let seg = Nat_seg.create m in
         let ring = Int_ring_perm.create m in
         let z4 = Z4_fin.create m in
         let seg_p = Nat_seg.perm seg and ring_p = Int_ring_perm.perm ring
         and z4_p = Z4_fin.perm z4 in
         Nat_seg.perm_with seg scratch writes = Nat_naive.perm cur
         && Int_ring_perm.perm_with ring scratch writes = Int_naive.perm cur
         && Z4_fin.perm_with z4 scratch writes = Z4_naive.perm cur
         && Nat_seg.perm seg = seg_p
         && Int_ring_perm.perm ring = ring_p
         && Z4_fin.perm z4 = z4_p
         && entries (Nat_seg.get seg) = m
         && entries (Int_ring_perm.get ring) = m
         && entries (Z4_fin.get z4) = m))

(* Random sequences of single sets and batches against the naive
   permanent after every step. n runs over 1..7, so trees of one leaf and
   trees with padding leaves (n not a power of two) are both exercised. *)
type seg_op = Set of int * int * int | Many of (int * int * int) list

let segtree_sequence (type a) name (module S : Intf.BASIC with type t = a) (of_int : int -> a)
    k =
  let module N = Perm.Naive.Make (S) in
  let ops = Intf.ops_of_module (module S) in
  let write = QCheck.Gen.(triple (int_range 0 3) (int_range 0 6) (int_range 0 5)) in
  let writes = QCheck.Gen.(list_size (int_range 0 4) write) in
  let op =
    QCheck.Gen.(
      frequency
        [
          (3, map (fun (r, c, v) -> Set (r, c, v)) write);
          (2, map (fun ws -> Many ws) writes);
        ])
  in
  let gen =
    QCheck.Gen.(
      int_range 1 7 >>= fun n ->
      pair
        (array_size (return k) (array_size (return n) (int_range 0 5)))
        (list_size (int_range 0 12) op))
  in
  let print (m, ops) =
    let ws l =
      String.concat ";" (List.map (fun (r, c, v) -> Printf.sprintf "(%d,%d,%d)" r c v) l)
    in
    Printf.sprintf "n=%d ops=[%s]"
      (if k = 0 then 0 else Array.length m.(0))
      (String.concat " "
         (List.map
            (function
              | Set (r, c, v) -> Printf.sprintf "set(%d,%d,%d)" r c v
              | Many l -> Printf.sprintf "many[%s]" (ws l))
            ops))
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make
       ~name:(Printf.sprintf "segtree update sequences = naive: %s (k=%d)" name k)
       ~count:100 (QCheck.make ~print gen)
       (fun (m, seq) ->
         let m = Array.map (Array.map of_int) m in
         let n = if k = 0 then 0 else Array.length m.(0) in
         (* fold raw writes onto the matrix shape; with no rows there is
            nothing to write *)
         let fit l =
           if k = 0 then [] else List.map (fun (r, c, v) -> (r mod k, c mod n, of_int v)) l
         in
         let t = Perm.Segtree.create ops m in
         let cur = Array.map Array.copy m in
         let agrees () =
           S.equal (Perm.Segtree.perm t) (N.perm cur)
           && Array.for_all Fun.id
                (Array.mapi
                   (fun r row ->
                     Array.for_all Fun.id
                       (Array.mapi (fun c v -> S.equal v (Perm.Segtree.get t ~row:r ~col:c)) row))
                   cur)
         in
         let write l =
           List.iter (fun (r, c, v) -> cur.(r).(c) <- v) l;
           agrees ()
         in
         agrees ()
         && List.for_all
              (function
                | Set (r, c, v) ->
                    let l = fit [ (r, c, v) ] in
                    List.iter (fun (row, col, v) -> Perm.Segtree.set t ~row ~col v) l;
                    write l
                | Many l ->
                    let l = fit l in
                    Perm.Segtree.set_many t l;
                    write l)
              seq))

let trop_of_int v = if v = 5 then Instances.Inf else Instances.Fin v

let finite_updates () =
  let m = Array.map (Array.map (fun v -> v = 1)) [| [| 1; 0; 1; 0 |]; [| 0; 1; 0; 1 |] |] in
  let t = Bool_fin.create m in
  check_bool "initial" (Bool_naive.perm m) (Bool_fin.perm t);
  Bool_fin.set t ~row:0 ~col:0 false;
  m.(0).(0) <- false;
  check_bool "after update 1" (Bool_naive.perm m) (Bool_fin.perm t);
  Bool_fin.set t ~row:0 ~col:2 false;
  m.(0).(2) <- false;
  check_bool "after update 2 (now false)" (Bool_naive.perm m) (Bool_fin.perm t);
  check_bool "permanent became false" false (Bool_fin.perm t)

(* large-count lasso: bool semiring, n far beyond the period *)
let lasso_large_counts () =
  let n = 1000 in
  let m = [| Array.make n true; Array.make n true |] in
  let t = Bool_fin.create m in
  check_bool "perm of huge all-true bool matrix" true (Bool_fin.perm t);
  (* Z4: permanent of 1 x n all-ones matrix is n mod 4 *)
  let m1 = [| Array.make n 1 |] in
  let t1 = Z4_fin.create m1 in
  check_int "Z4 1xn all ones = n mod 4" (n mod 4) (Z4_fin.perm t1)

(* the enumerator permanent of Lemma 23, over a matrix whose cells list
   their monomials: an empty cell is a zero entry, and a row's entry
   cursor walks its cell's list. The odometer multiplies nothing: the
   monomial it stands at is formed here from its row cursors. *)
let monomial_mul a b = List.sort compare (a @ b)

type cell_cursor = { mutable ms : string list array; mutable at : int }

let cell_entries : (string list list array array, cell_cursor) Perm.Enum_perm.entries =
  {
    nonzero = (fun cells r c -> cells.(r).(c) <> []);
    make = (fun _ -> { ms = [||]; at = 0 });
    aim =
      (fun e cells r c ->
        e.ms <- Array.of_list cells.(r).(c);
        e.at <- 0);
    step =
      (fun e dir ->
        let l = Array.length e.ms in
        e.at <- (e.at + if dir > 0 then 1 else l) mod (l + 1);
        e.at > 0);
  }

let dims (cells : string list list array array) =
  let k = Array.length cells in
  (k, if k = 0 then 0 else Array.length cells.(0))

let enum_perm cells =
  let k, n = dims cells in
  Perm.Enum_perm.create cell_entries cells ~rows:k ~cols:n

(* the product of the current monomials of a live odometer's [k] row
   cursors *)
let row_monomial st k =
  List.sort compare
    (List.concat
       (List.init k (fun r ->
            let e = Perm.Enum_perm.row st r in
            e.ms.(e.at - 1))))

(* an iterator handle over an odometer of [k] rows *)
let iter st k =
  {
    Enum.Iter.current =
      (fun () -> if Perm.Enum_perm.live st then Some (row_monomial st k) else None);
    next = (fun () -> Perm.Enum_perm.move st 1);
    prev = (fun () -> Perm.Enum_perm.move st (-1));
    reset = (fun () -> Perm.Enum_perm.reset st);
    is_empty = (fun () -> not (Perm.Enum_perm.nonzero st));
  }

let monomials cells = Enum.Iter.to_list (iter (enum_perm cells) (fst (dims cells)))
let sorted_monomials cells = List.sort compare (monomials cells)
let e name = [ [ name ] ]
let z : string list list = []
let check_monomials = Alcotest.(check (list (list string)))

let enum_perm_simple () =
  (* 2x2 matrix of singleton monomials: perm enumerates both assignments *)
  check_monomials "perm monomials"
    [ [ "a1"; "b2" ]; [ "a2"; "b1" ] ]
    (sorted_monomials [| [| e "a1"; e "a2" |]; [| e "b1"; e "b2" |] |])

let enum_perm_respects_zeroes () =
  (* row 0 can only use column 0; row 1 can use both *)
  let m = [| [| e "a1"; z |]; [| e "b1"; e "b2" |] |] in
  check_monomials "only valid assignment" [ [ "a1"; "b2" ] ] (sorted_monomials m);
  Alcotest.(check bool) "nonzero" true (Perm.Enum_perm.nonzero (enum_perm m))

let enum_perm_infeasible () =
  (* both rows restricted to the same single column: no injective choice *)
  let m = [| [| e "a1"; z |]; [| e "b1"; z |] |] in
  Alcotest.(check bool) "infeasible" false (Perm.Enum_perm.nonzero (enum_perm m));
  Alcotest.(check int) "no monomials" 0 (List.length (monomials m))

let enum_perm_multi_monomial () =
  (* entries that are themselves sums: (x + y) in one cell *)
  let m = [| [| [ [ "x" ]; [ "y" ] ]; e "z" |]; [| e "u"; e "v" |] |] in
  (* perm = (x+y)·v + z·u, so monomials: xv, yv, zu *)
  check_monomials "expanded monomials"
    [ [ "u"; "z" ]; [ "v"; "x" ]; [ "v"; "y" ] ]
    (sorted_monomials m)

(* the cells of a 0/1 pattern: entry (r, c) is the monomial e<r>_<c> *)
let pattern_cells pattern =
  Array.mapi
    (fun r row -> Array.mapi (fun c v -> if v = 1 then e (Printf.sprintf "e%d_%d" r c) else z) row)
    pattern

let enum_perm_matches_counting k =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make
       ~name:(Printf.sprintf "enum perm count = nat perm of 0/1 matrix (k=%d)" k)
       ~count:30 (matrix_gen ~k ~maxn:6 ~maxv:1)
       (fun m ->
         (* monomial count of enum perm equals permanent over ℕ *)
         List.length (monomials (pattern_cells m)) = Nat_naive.perm m))

(* Σ over injective f of Π_r M[r, f(r)], expanded naively *)
let naive_expansion cells =
  let k = Array.length cells in
  let n = if k = 0 then 0 else Array.length cells.(0) in
  let rec go r used acc =
    if r = k then [ acc ]
    else
      List.concat
        (List.init n (fun c ->
             if List.mem c used then []
             else List.concat_map (fun m -> go (r + 1) (c :: used) (monomial_mul acc m)) cells.(r).(c)))
  in
  go 0 [] []

(* every movement of a full pass from ⊥, without [to_list]'s reset *)
let drain it =
  let rec go acc =
    Enum.Iter.next it;
    match Enum.Iter.current it with None -> List.rev acc | Some m -> go (m :: acc)
  in
  go []

(* the cells of a count matrix: cell (r, c) holds [counts.(r).(c)]
   monomials over four generators, so monomials repeat *)
let counted_cells counts =
  Array.mapi
    (fun r row ->
      Array.mapi
        (fun c v -> List.init v (fun i -> [ Printf.sprintf "v%d" (((7 * r) + (3 * c) + i) mod 4) ]))
        row)
    counts

(* One pass of [st] checked against the naive expansion of [cells]: the
   same multiset forward, the reverse order backward, and the same list
   after a reset that follows [stop] movements. *)
let expands st cells stop =
  let it = iter st (fst (dims cells)) in
  let fwd = Enum.Iter.to_list it in
  let bwd = Enum.Iter.to_list_rev it in
  Enum.Iter.reset it;
  for _ = 0 to stop mod (List.length fwd + 1) do
    Enum.Iter.next it
  done;
  Enum.Iter.reset it;
  let again = drain it in
  let naive = naive_expansion cells in
  List.sort compare fwd = List.sort compare naive
  && bwd = List.rev fwd
  && again = fwd
  && Perm.Enum_perm.nonzero st = (naive <> [])

let enum_perm_matches_expansion k =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make
       ~name:(Printf.sprintf "enum perm = naive expansion, both directions, reset (k=%d)" k)
       ~count:60
       QCheck.(pair (matrix_gen ~k ~maxn:6 ~maxv:3) small_nat)
       (fun (counts, stop) ->
         let cells = counted_cells counts in
         expands (enum_perm cells) cells stop))

(* A pass from ⊥ in direction [dir] over an odometer of [k] rows: at
   every monomial, every row cursor is live (the answer is read from
   them). *)
let rows_live_on_pass st k dir =
  Perm.Enum_perm.reset st;
  let rec go () =
    Perm.Enum_perm.move st dir;
    (not (Perm.Enum_perm.live st))
    || (List.for_all (fun r -> (Perm.Enum_perm.row st r).at > 0) (List.init k Fun.id) && go ())
  in
  go ()

(* One odometer re-aimed across a sequence of matrices of 1-3 rows and
   0-6 columns, each aim made in the middle of a pass over the matrix
   before: every matrix still expands as it does alone, so no class,
   [free] count or row survives an aim, and every row cursor is live at
   every monomial, forward and backward. *)
let enum_perm_reaim =
  let matrix =
    QCheck.Gen.(
      int_range 1 3 >>= fun k ->
      int_range 0 6 >>= fun n ->
      pair (array_size (return k) (array_size (return n) (int_range 0 3))) small_nat)
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"enum perm: one odometer re-aimed = naive expansion" ~count:60
       (QCheck.make QCheck.Gen.(list_size (int_range 2 6) matrix))
       (fun matrices ->
         let st = enum_perm (counted_cells (fst (List.hd matrices))) in
         List.for_all
           (fun (counts, stop) ->
             let cells = counted_cells counts in
             let k, n = dims cells in
             Perm.Enum_perm.aim st cells ~rows:k ~cols:n;
             let ok =
               expands st cells stop && rows_live_on_pass st k 1 && rows_live_on_pass st k (-1)
             in
             for _ = 0 to stop do
               Perm.Enum_perm.move st 1
             done;
             ok)
           matrices))

(* An edited pattern is a new matrix: the enumerator of each one is
   created from it. *)
let enum_perm_update () =
  let m = [| [| e "a1"; e "a2" |]; [| e "b1"; e "b2" |] |] in
  m.(0).(1) <- z;
  check_monomials "after zeroing a2" [ [ "a1"; "b2" ] ] (sorted_monomials m);
  m.(0).(1) <- e "a2'";
  check_monomials "after restoring" [ [ "a1"; "b2" ]; [ "a2'"; "b1" ] ] (sorted_monomials m)

(* A column driven all-zero → non-zero → all-zero: it leaves and enters
   the column classes, and the monomial count follows the ℕ permanent of
   the 0/1 pattern at every step. *)
let enum_perm_type0_column () =
  let pattern = [| [| 1; 0; 1 |]; [| 1; 0; 0 |] |] in
  let check step =
    let cells = pattern_cells pattern in
    let got = monomials cells in
    check_int (step ^ ": count = nat perm") (Nat_naive.perm pattern) (List.length got);
    check_int (step ^ ": duplicate-free") (List.length got)
      (List.length (List.sort_uniq compare got));
    check_bool (step ^ ": nonzero") (Nat_naive.perm pattern > 0)
      (Perm.Enum_perm.nonzero (enum_perm cells))
  in
  let set r c v = pattern.(r).(c) <- v in
  check "column 1 all-zero";
  set 1 1 1;
  check "row 1 entry on";
  set 0 1 1;
  check "both entries on";
  set 1 1 0;
  check "row 1 entry off";
  set 0 1 0;
  check "column 1 all-zero again";
  (* the only column row 1 can use goes to zero: the permanent vanishes *)
  set 1 0 0;
  check "row 1 all-zero"

(* set_many must validate the whole batch before mutating anything: one
   bad entry (row, column, or — for finite semirings — an element outside
   the enumeration) leaves the structure bit-for-bit unchanged *)
let set_many_all_or_nothing () =
  let m = [| [| 1; 2; 3 |]; [| 4; 5; 6 |] |] in
  let reject what thunk =
    match thunk () with
    | () -> Alcotest.failf "%s: invalid batch must be rejected" what
    | exception Invalid_argument _ -> ()
  in
  (* segtree *)
  let seg = Nat_seg.create m in
  let before = Nat_seg.perm seg in
  reject "segtree col" (fun () -> Nat_seg.set_many seg [ (0, 1, 9); (1, 7, 8) ]);
  check_int "segtree untouched after bad col" before (Nat_seg.perm seg);
  reject "segtree row" (fun () -> Nat_seg.set_many seg [ (5, 0, 9); (0, 0, 8) ]);
  check_int "segtree untouched after bad row" before (Nat_seg.perm seg);
  Nat_seg.set_many seg [ (0, 1, 9) ];
  m.(0).(1) <- 9;
  check_int "segtree still live" (Nat_naive.perm m) (Nat_seg.perm seg);
  m.(0).(1) <- 2;
  (* ring power sums *)
  let ring = Int_ring_perm.create m in
  let before = Int_ring_perm.perm ring in
  reject "ring col" (fun () -> Int_ring_perm.set_many ring [ (0, 1, 9); (1, 7, 8) ]);
  check_int "ring untouched after bad col" before (Int_ring_perm.perm ring);
  reject "ring row" (fun () -> Int_ring_perm.set_many ring [ (5, 0, 9); (0, 0, 8) ]);
  check_int "ring untouched after bad row" before (Int_ring_perm.perm ring);
  Int_ring_perm.set_many ring [ (0, 1, 9) ];
  m.(0).(1) <- 9;
  check_int "ring still live" (Int_naive.perm m) (Int_ring_perm.perm ring);
  m.(0).(1) <- 2;
  (* finite counters, including an element outside the enumeration: GF(2)
     over plain ints claims elements {0, 1}, so 7 must be rejected before
     any counter moves *)
  let gf2_ops =
    {
      Semiring.Intf.zero = 0;
      one = 1;
      add = (fun a b -> (a + b) land 1);
      mul = (fun a b -> a * b land 1);
      equal = Int.equal;
      neg = None;
      elements = Some [ 0; 1 ];
    }
  in
  let bm = [| [| 1; 0; 1 |]; [| 0; 1; 1 |] |] in
  let fin = Perm.Finite.create gf2_ops bm in
  let before = Perm.Finite.perm fin in
  reject "finite col" (fun () -> Perm.Finite.set_many fin [ (0, 1, 1); (1, 7, 0) ]);
  check_int "finite untouched after bad col" before (Perm.Finite.perm fin);
  reject "finite row" (fun () -> Perm.Finite.set_many fin [ (5, 0, 1); (0, 0, 0) ]);
  check_int "finite untouched after bad row" before (Perm.Finite.perm fin);
  reject "finite element" (fun () -> Perm.Finite.set_many fin [ (0, 0, 0); (1, 2, 7) ]);
  check_int "finite untouched after bad element" before (Perm.Finite.perm fin);
  Perm.Finite.set_many fin [ (0, 1, 1); (0, 0, 0) ];
  let gf2_naive = [| [| 0; 1; 1 |]; [| 0; 1; 1 |] |] in
  let expected =
    (* naive GF(2) permanent of the updated matrix *)
    let acc = ref 0 in
    for c0 = 0 to 2 do
      for c1 = 0 to 2 do
        if c0 <> c1 then acc := (!acc + (gf2_naive.(0).(c0) * gf2_naive.(1).(c1))) land 1
      done
    done;
    !acc
  in
  check_int "finite still live" expected (Perm.Finite.perm fin)

(* every single-entry set moves its strategy's perm/*_sets counter by
   exactly one; while telemetry is disabled none moves, and nothing bumped
   then is published after re-enabling *)
let single_sets_counted () =
  let count name = Obs.Counter.get (Obs.counter ~scope:"perm" name) in
  let seg =
    Perm.Segtree.create (Intf.ops_of_module (module Instances.Nat))
      [| [| 1; 2; 3 |]; [| 4; 5; 6 |] |]
  in
  let ring =
    Perm.Ring.create (Intf.ops_of_ring (module Instances.Int_ring))
      [| [| 1; -2; 3 |]; [| 4; 5; -6 |] |]
  in
  let fin =
    Perm.Finite.create (Intf.ops_of_finite (module Instances.Bool))
      [| [| true; false; true |]; [| false; true; true |] |]
  in
  List.iter
    (fun (name, set) ->
      Obs.set_enabled true;
      for i = 1 to 3 do
        let before = count name in
        set i;
        check_int (Printf.sprintf "%s: one count per single-entry set" name) (before + 1) (count name)
      done;
      let before = count name in
      Obs.set_enabled false;
      Fun.protect
        ~finally:(fun () -> Obs.set_enabled true)
        (fun () ->
          for i = 1 to 70 do
            set i
          done);
      check_int (Printf.sprintf "%s: frozen while disabled" name) before (count name);
      set 0;
      check_int (Printf.sprintf "%s: only the re-enabled set counts" name) (before + 1) (count name))
    [
      ("segtree_sets", fun i -> Perm.Segtree.set seg ~row:0 ~col:1 (i + 7));
      ("ring_sets", fun i -> Perm.Ring.set ring ~row:1 ~col:0 (i - 3));
      ("finite_sets", fun i -> Perm.Finite.set fin ~row:0 ~col:2 (i land 1 = 0));
    ]

let suite =
  [
    Alcotest.test_case "known permanents" `Quick known_values;
    Alcotest.test_case "perm' (increasing)" `Quick increasing_values;
    static_vs_naive 1;
    static_vs_naive 2;
    static_vs_naive 3;
    static_vs_naive 4;
    segtree_vs_naive 2;
    segtree_vs_naive 3;
    ring_vs_naive 2;
    ring_vs_naive 3;
    finite_bool_vs_naive 2;
    finite_bool_vs_naive 3;
    finite_z4_vs_naive 2;
    Alcotest.test_case "tropical permanents" `Quick tropical_matches;
    perm_with_agreement 1;
    perm_with_agreement 2;
    perm_with_agreement 3;
    update_agreement;
    set_many_agreement;
    segtree_sequence "nat" (module Instances.Nat) Fun.id 0;
    segtree_sequence "nat" (module Instances.Nat) Fun.id 1;
    segtree_sequence "nat" (module Instances.Nat) Fun.id 2;
    segtree_sequence "nat" (module Instances.Nat) Fun.id 3;
    segtree_sequence "min-plus" (module Tropical.Min_plus) trop_of_int 0;
    segtree_sequence "min-plus" (module Tropical.Min_plus) trop_of_int 1;
    segtree_sequence "min-plus" (module Tropical.Min_plus) trop_of_int 2;
    segtree_sequence "min-plus" (module Tropical.Min_plus) trop_of_int 3;
    Alcotest.test_case "set_many is all-or-nothing" `Quick set_many_all_or_nothing;
    Alcotest.test_case "finite semiring updates" `Quick finite_updates;
    Alcotest.test_case "single-entry sets counted exactly" `Quick single_sets_counted;
    Alcotest.test_case "lasso with large counts" `Quick lasso_large_counts;
    Alcotest.test_case "enum perm: simple" `Quick enum_perm_simple;
    Alcotest.test_case "enum perm: zero entries" `Quick enum_perm_respects_zeroes;
    Alcotest.test_case "enum perm: infeasible" `Quick enum_perm_infeasible;
    Alcotest.test_case "enum perm: multi-monomial entries" `Quick enum_perm_multi_monomial;
    enum_perm_matches_counting 1;
    enum_perm_matches_counting 2;
    enum_perm_matches_counting 3;
    enum_perm_matches_expansion 1;
    enum_perm_matches_expansion 2;
    enum_perm_matches_expansion 3;
    enum_perm_reaim;
    Alcotest.test_case "enum perm: updates" `Quick enum_perm_update;
    Alcotest.test_case "enum perm: type-0 column" `Quick enum_perm_type0_column;
  ]
