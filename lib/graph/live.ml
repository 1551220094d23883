(** Live Gaifman graph — the compile-time graph artifacts kept as
    updatable structures instead of build-once snapshots, so a tuple
    insert/delete can be turned into a *localized* recompile.

    Three layers, matching what the one-shot pipeline computes once:

    - {b edges with multiplicities}: each undirected edge counts how many
      tuple pair-incidences induce it, so deleting a tuple removes the
      Gaifman edge only when no other tuple still covers it;
    - {b a pinned coloring}: the TFA low-treedepth coloring (which bakes
      in the fraternal-augmentation orientation) is attached once per
      full compile and deliberately {e not} recomputed per update — the
      color classes are what make affected-region reporting possible.
      When the pinned witness degrades past the compiled depth bound,
      [Engine.Compile.recompile_local] runs a full compile with a fresh
      coloring instead (the amortization trigger);
    - {b per-color-subset elimination forests}: cached per compiled
      subset and invalidated precisely. A structural update touching
      vertex set [V] affects exactly the subsets containing {e every}
      color of [V] — a constraint tuple ranges over whole color classes
      and an edge lies in an induced subgraph iff both endpoint colors
      are in the subset, so subsets missing a touched color compile to
      the same gates as before.

    Pure stdlib on purpose: the [graphs] library sits below [robust] and
    [obs], so domain violations raise [Invalid_argument] here and the
    engine layers wrap them. *)

type t = {
  n : int;
  adj : (int, int) Hashtbl.t array;  (** neighbor → pair-incidence count *)
  mutable m : int;  (** distinct edges *)
  mutable coloring : Tfa.coloring option;  (** pinned by the full compile *)
  mutable classes : int array array;
      (** color → its vertices, ascending; set with the coloring *)
  forests : (int list, Forest.t * int array) Hashtbl.t;
      (** color subset → (forest over local indices, local → vertex) *)
}

let create ~n =
  if n < 0 then invalid_arg "Live.create: negative domain size";
  {
    n;
    adj = Array.init n (fun _ -> Hashtbl.create 4);
    m = 0;
    coloring = None;
    classes = [||];
    forests = Hashtbl.create 16;
  }

let n t = t.n
let m t = t.m

let check_vertex t v =
  if v < 0 || v >= t.n then
    invalid_arg (Printf.sprintf "Live: vertex %d out of [0, %d)" v t.n)

let multiplicity t u v =
  check_vertex t u;
  check_vertex t v;
  match Hashtbl.find_opt t.adj.(u) v with Some c -> c | None -> 0

let has_edge t u v = multiplicity t u v > 0

(** Record one pair-incidence of the undirected edge [u]–[v] (self-loops
    are ignored, as in the Gaifman graph). Returns [true] iff a new edge
    appeared — i.e. the incidence count went 0 → 1. *)
let add_edge t u v =
  check_vertex t u;
  check_vertex t v;
  if u = v then false
  else begin
    let c = match Hashtbl.find_opt t.adj.(u) v with Some c -> c | None -> 0 in
    Hashtbl.replace t.adj.(u) v (c + 1);
    Hashtbl.replace t.adj.(v) u (c + 1);
    if c = 0 then begin
      t.m <- t.m + 1;
      true
    end
    else false
  end

(** Remove one pair-incidence; [true] iff the edge disappeared (count
    1 → 0). Removing an absent incidence is a bookkeeping bug upstream,
    so it raises rather than saturating at zero. *)
let remove_edge t u v =
  check_vertex t u;
  check_vertex t v;
  if u = v then false
  else
    match Hashtbl.find_opt t.adj.(u) v with
    | None | Some 0 ->
        invalid_arg (Printf.sprintf "Live.remove_edge: edge %d-%d not present" u v)
    | Some 1 ->
        Hashtbl.remove t.adj.(u) v;
        Hashtbl.remove t.adj.(v) u;
        t.m <- t.m - 1;
        true
    | Some c ->
        Hashtbl.replace t.adj.(u) v (c - 1);
        Hashtbl.replace t.adj.(v) u (c - 1);
        false

(** Sorted, duplicate-free neighbor list (the [Graph.neighbors] contract). *)
let neighbors t v =
  check_vertex t v;
  List.sort compare (Hashtbl.fold (fun w _ acc -> w :: acc) t.adj.(v) [])

let degree t v =
  check_vertex t v;
  Hashtbl.length t.adj.(v)

(** Immutable snapshot of the current edge set (multiplicities dropped). *)
let snapshot t : Graph.t =
  let edges = ref [] in
  Array.iteri
    (fun u tbl -> Hashtbl.iter (fun v _ -> if u < v then edges := (u, v) :: !edges) tbl)
    t.adj;
  Graph.of_edges ~n:t.n !edges

(** Pin a coloring (from a full compile) and its color classes; drops
    every cached forest. *)
let set_coloring t (c : Tfa.coloring) =
  if Array.length c.Tfa.color <> t.n then
    invalid_arg "Live.set_coloring: coloring size does not match the graph";
  let classes = Array.make (Array.fold_left max (-1) c.Tfa.color + 1) [] in
  for v = t.n - 1 downto 0 do
    let k = c.Tfa.color.(v) in
    classes.(k) <- v :: classes.(k)
  done;
  t.coloring <- Some c;
  t.classes <- Array.map Array.of_list classes;
  Hashtbl.reset t.forests

let coloring t = t.coloring

(** Colors of a touched vertex set under the pinned coloring, sorted and
    duplicate-free — the affected-region fingerprint of an update. *)
let colors_of t verts =
  match t.coloring with
  | None -> invalid_arg "Live.colors_of: no coloring pinned"
  | Some c ->
      List.sort_uniq compare
        (List.map
           (fun v ->
             check_vertex t v;
             c.Tfa.color.(v))
           verts)

(** Does a structural update touching exactly [touched_colors] affect the
    compiled color subset [subset]? Yes iff every touched color is in the
    subset (see the module header for why). *)
let subset_affected ~touched_colors subset =
  touched_colors <> [] && List.for_all (fun c -> List.mem c subset) touched_colors

(** Drop the cached forests of every subset affected by [touched_colors]. *)
let invalidate t ~touched_colors =
  Hashtbl.filter_map_inplace
    (fun s f -> if subset_affected ~touched_colors s then None else Some f)
    t.forests

(** The elimination forest of the subgraph induced by the color classes
    of [subset] under the pinned coloring, cached under [subset] until
    invalidated. Returns the forest over local indices plus the local →
    vertex mapping, ascending. The induced subgraph is rebuilt
    canonically ([Graph.of_edges] sorts), so the forest is deterministic
    regardless of update history. *)
let forest t subset : Forest.t * int array =
  match Hashtbl.find_opt t.forests subset with
  | Some cached -> cached
  | None ->
      if t.coloring = None then invalid_arg "Live.forest: no coloring pinned";
      let orig = Array.concat (List.map (fun k -> t.classes.(k)) subset) in
      Array.sort Int.compare orig;
      let k = Array.length orig in
      let local = Hashtbl.create (2 * k) in
      Array.iteri (fun i v -> Hashtbl.replace local v i) orig;
      let edges = ref [] in
      Array.iteri
        (fun i v ->
          Hashtbl.iter
            (fun w _ ->
              if w > v then
                match Hashtbl.find_opt local w with
                | Some j -> edges := (i, j) :: !edges
                | None -> ())
            t.adj.(v))
        orig;
      let sub = Graph.of_edges ~n:k !edges in
      let entry = (Treedepth.best_forest sub, orig) in
      Hashtbl.replace t.forests subset entry;
      entry

(** Number of cached subset forests (observability for tests/stats). *)
let cached_forests t = Hashtbl.length t.forests
