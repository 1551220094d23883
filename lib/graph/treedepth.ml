(** Heuristic low-depth elimination forests. Any forest in which every
    graph edge joins an ancestor–descendant pair is a valid substrate for
    the forest-stage compilation; depth is pure performance (the shape
    count grows with depth). A DFS forest always works (no cross edges) but
    can be deep; this heuristic recursively roots each component at the
    center of an approximate longest path, giving O(log n) depth on paths
    and near-treedepth behaviour on the path-like subgraphs that low-
    treedepth color classes induce. *)

(* BFS from [s] over alive vertices, in scratch arrays shared by every
   call of one {!elimination_forest}: [parent] is -2 outside the visited
   set and [queue] holds the visited vertices in visit order. Returns the
   farthest vertex and the number visited; the caller reads [parent] and
   then calls [reset], so each BFS costs its component, not n. *)
let bfs (g : Graph.t) alive ~parent ~queue s =
  queue.(0) <- s;
  parent.(s) <- s;
  let head = ref 0 and tail = ref 1 in
  while !head < !tail do
    let v = queue.(!head) in
    incr head;
    List.iter
      (fun w ->
        if alive.(w) && parent.(w) = -2 then begin
          parent.(w) <- v;
          queue.(!tail) <- w;
          incr tail
        end)
      (Graph.neighbors g v)
  done;
  (queue.(!tail - 1), !tail)

let reset ~parent ~queue visited =
  for i = 0 to visited - 1 do
    parent.(queue.(i)) <- -2
  done

(** Elimination forest by recursive center removal. *)
let elimination_forest (g : Graph.t) : Forest.t =
  let n = Graph.n g in
  let alive = Array.make n true in
  let fparent = Array.make n (-1) in
  let parent = Array.make n (-2) and queue = Array.make n 0 in
  (* process the component of [s]; attach its chosen root below [above] *)
  let rec component s above =
    (* double BFS to find an approximate longest path, then its middle *)
    let a, visited = bfs g alive ~parent ~queue s in
    reset ~parent ~queue visited;
    let b, visited = bfs g alive ~parent ~queue a in
    (* path from b back to a *)
    let path = ref [ b ] in
    let v = ref b in
    while parent.(!v) <> !v do
      v := parent.(!v);
      path := !v :: !path
    done;
    reset ~parent ~queue visited;
    let path = Array.of_list !path in
    let center = path.(Array.length path / 2) in
    fparent.(center) <- (if above < 0 then center else above);
    alive.(center) <- false;
    (* recurse on the remaining components, discovered from the center's
       old neighborhood and the component's other vertices *)
    List.iter
      (fun w -> if alive.(w) && fparent.(w) < 0 then component_from w center)
      (Graph.neighbors g center);
    (* any vertex of the original component not yet reached (disconnected
       from center's neighbors only through center) is found lazily by the
       outer loop *)
    ()
  and component_from s above =
    (* s may have been absorbed by an earlier sibling recursion *)
    if alive.(s) then component s above
  in
  (* note: removing the center splits the component; all pieces touch the
     center's neighborhood, so the recursion above reaches every vertex of
     the component *)
  for s = 0 to n - 1 do
    if alive.(s) then component s (-1)
  done;
  Forest.of_parents fparent

(** The better of the DFS forest and the heuristic elimination forest. *)
let best_forest (g : Graph.t) : Forest.t =
  let dfs = Forest.dfs_forest g in
  let elim = elimination_forest g in
  if Forest.max_depth elim < Forest.max_depth dfs then elim else dfs
