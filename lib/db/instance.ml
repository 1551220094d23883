(** Finite Σ-structures: a domain {0, …, n−1}, a set of tuples per relation
    symbol with O(1) membership, and total unary functions. This is the
    representation the paper assumes for classes of bounded expansion
    (Section 2): linear size, constant-time tuple membership. *)

type tuple = int list

type t = {
  schema : Schema.t;
  n : int;  (** domain size *)
  tuples : (string, (tuple, unit) Hashtbl.t) Hashtbl.t;
  funcs : (string, int array) Hashtbl.t;
}

let create schema ~n =
  let tuples = Hashtbl.create 16 in
  List.iter (fun (r, _) -> Hashtbl.replace tuples r (Hashtbl.create 64)) schema.Schema.rels;
  let funcs = Hashtbl.create 4 in
  List.iter (fun f -> Hashtbl.replace funcs f (Array.init n Fun.id)) schema.Schema.funcs;
  { schema; n; tuples; funcs }

let schema t = t.schema
let n t = t.n

let rel_table t r =
  match Hashtbl.find_opt t.tuples r with
  | Some tbl -> tbl
  | None -> Robust.bad_input "Instance: unknown relation %s" r

(* Validate on construction: an arity mismatch or out-of-range element id
   fails here with a clear [Bad_input], not as an out-of-bounds crash deep
   inside compilation. *)
let check_tuple t r tup =
  if not (Schema.has_rel t.schema r) then Robust.bad_input "Instance: unknown relation %s" r;
  let a = Schema.arity t.schema r in
  if List.length tup <> a then Robust.bad_input "Instance: %s expects arity %d" r a;
  List.iter
    (fun v ->
      if v < 0 || v >= t.n then
        Robust.bad_input "Instance: element %d out of domain [0, %d)" v t.n)
    tup

(** Add a tuple to relation [r]. A duplicate insert is rejected as
    [Robust.Bad_input]: structural deltas must be unambiguous — the
    incremental-maintenance layer needs every accepted insert to be a
    genuine change, not a silent last-write-wins overwrite. *)
let add t r tup =
  check_tuple t r tup;
  let tbl = rel_table t r in
  if Hashtbl.mem tbl tup then
    Robust.bad_input "Instance: duplicate tuple %s(%s)" r
      (String.concat "," (List.map string_of_int tup));
  Hashtbl.replace tbl tup ()

(** Remove a tuple from relation [r]. Idempotent. *)
let remove t r tup = Hashtbl.remove (rel_table t r) tup

(** Set semantics: make [tup] present in [r] iff [present], and return
    whether its membership changed. Unlike {!add}, setting a present tuple
    is a no-op; a tuple set present is validated as in {!add}. One hash
    table operation: the change shows in the table's size. *)
let set t r tup present =
  let tbl = rel_table t r in
  let before = Hashtbl.length tbl in
  if present then begin
    check_tuple t r tup;
    Hashtbl.replace tbl tup ()
  end
  else Hashtbl.remove tbl tup;
  Hashtbl.length tbl <> before

(** O(1) tuple membership. *)
let mem t r tup = Hashtbl.mem (rel_table t r) tup

let cardinality t r = Hashtbl.length (rel_table t r)
let tuples t r = Hashtbl.fold (fun tup () acc -> tup :: acc) (rel_table t r) []
let iter_tuples t r f = Hashtbl.iter (fun tup () -> f tup) (rel_table t r)

(** Total number of tuples across all relations. *)
let size t =
  List.fold_left (fun acc (r, _) -> acc + cardinality t r) 0 t.schema.Schema.rels

let set_func t f tbl =
  if Array.length tbl <> t.n then
    Robust.bad_input "Instance.set_func: table length %d, domain size %d"
      (Array.length tbl) t.n;
  Array.iter
    (fun v ->
      if v < 0 || v >= t.n then
        Robust.bad_input "Instance.set_func: value %d out of domain [0, %d)" v t.n)
    tbl;
  Hashtbl.replace t.funcs f tbl

let func t f =
  match Hashtbl.find_opt t.funcs f with
  | Some tbl -> tbl
  | None -> Robust.bad_input "Instance: unknown function %s" f

let apply_func t f v = (func t f).(v)

(** Unordered element pairs of one tuple, each occurrence once — the unit
    of Gaifman-edge incidence. Both the snapshot graph and the live
    multiplicity counts are built from this same enumeration, so a later
    [delete] removes exactly the incidences its [insert] added. *)
let tuple_pairs (tup : tuple) (f : int -> int -> unit) =
  let rec pairs = function
    | [] -> ()
    | x :: rest ->
        List.iter (fun y -> if x <> y then f x y) rest;
        pairs rest
  in
  pairs tup

(** The Gaifman graph (Section 2): vertices are domain elements; distinct
    elements are adjacent iff they occur together in some tuple (function
    symbols contribute the graphs of the functions). *)
let gaifman t : Graphs.Graph.t =
  let edges = ref [] in
  List.iter
    (fun (r, a) ->
      if a >= 2 then
        iter_tuples t r (fun tup -> tuple_pairs tup (fun x y -> edges := (x, y) :: !edges)))
    t.schema.Schema.rels;
  List.iter
    (fun f ->
      let tbl = func t f in
      Array.iteri (fun v w -> if v <> w then edges := (v, w) :: !edges) tbl)
    t.schema.Schema.funcs;
  Graphs.Graph.of_edges ~n:t.n !edges

(** The Gaifman graph as a live, multiplicity-counted structure: one
    incidence per unordered element pair per tuple occurrence (plus the
    function graphs, one incidence each — functions are replaced whole by
    [set_func], never structurally updated, so their count never drops).
    The starting point for localized incremental recompiles. *)
let live_gaifman t : Graphs.Live.t =
  let live = Graphs.Live.create ~n:t.n in
  List.iter
    (fun (r, a) ->
      if a >= 2 then
        iter_tuples t r (fun tup ->
            tuple_pairs tup (fun x y -> ignore (Graphs.Live.add_edge live x y))))
    t.schema.Schema.rels;
  List.iter
    (fun f ->
      let tbl = func t f in
      Array.iteri (fun v w -> if v <> w then ignore (Graphs.Live.add_edge live v w)) tbl)
    t.schema.Schema.funcs;
  live

(** Is adding/removing this tuple Gaifman-preserving (Section 6)? A tuple
    may be added only if its elements already form a clique in the given
    Gaifman graph; removal always preserves the graph in our model (the
    graph is kept as the union over time). *)
let clique_in g tup =
  let rec pairs = function
    | [] -> true
    | x :: rest ->
        List.for_all (fun y -> x = y || Graphs.Graph.has_edge g x y) rest && pairs rest
  in
  pairs tup

(** Build a graph structure over {E/2} from an undirected graph, with both
    arc directions stored. *)
let of_graph ?(schema = Schema.graph_schema) (g : Graphs.Graph.t) =
  let t = create schema ~n:(Graphs.Graph.n g) in
  Graphs.Graph.iter_edges
    (fun u v ->
      add t "E" [ u; v ];
      add t "E" [ v; u ])
    g;
  t

(** Copy with one extra relation (fresh name) filled with [tuples] —
    used when materializing connective outputs and quantifier witnesses as
    database relations (Theorem 26 induction). *)
let with_relation t r ~arity tuples =
  let schema = Schema.add_rel t.schema (r, arity) in
  let deep_tuples = Hashtbl.create 16 in
  Hashtbl.iter (fun rel tbl -> Hashtbl.replace deep_tuples rel (Hashtbl.copy tbl)) t.tuples;
  let deep_funcs = Hashtbl.create 4 in
  Hashtbl.iter (fun f tbl -> Hashtbl.replace deep_funcs f (Array.copy tbl)) t.funcs;
  let t' = { t with schema; tuples = deep_tuples; funcs = deep_funcs } in
  Hashtbl.replace t'.tuples r (Hashtbl.create (List.length tuples * 2));
  (* materialized answer lists may repeat tuples; the relation is a set,
     so dedup here instead of inheriting [add]'s duplicate rejection *)
  List.iter
    (fun tup ->
      check_tuple t' r tup;
      Hashtbl.replace (rel_table t' r) tup ())
    tuples;
  t'

(** Deep copy (for baselines that mutate). *)
let copy t =
  let tuples = Hashtbl.create 16 in
  Hashtbl.iter (fun r tbl -> Hashtbl.replace tuples r (Hashtbl.copy tbl)) t.tuples;
  let funcs = Hashtbl.create 4 in
  Hashtbl.iter (fun f tbl -> Hashtbl.replace funcs f (Array.copy tbl)) t.funcs;
  { t with tuples; funcs }
