(** Circuits over semirings with permanent gates (paper, Section 3).

    A circuit is a DAG of gates: inputs (identified by a weight symbol and
    a tuple), constants, additions (arbitrary fan-in), multiplications
    (arbitrary fan-in; compiled circuits keep these bounded), and permanent
    gates whose inputs form a rows × columns matrix of gates. Gate ids are
    assigned in creation order, which is a topological order.

    The same circuit can be evaluated in any semiring containing its
    constants — the universality at the heart of Theorem 6. *)

type input_key = string * int list
(** (weight symbol, tuple) — the pair (w, ā) indexing an input gate. *)

type 'a node =
  | Input of input_key
  | Const of 'a
  | Add of int array
  | Mul of int array
  | Perm of int array array  (** rows × columns of gate ids *)

type 'a t = { nodes : 'a node array; output : int }

(* --- builder --- *)

type 'a builder = {
  mutable buf : 'a node array;
  mutable len : int;
  inputs : (input_key, int) Hashtbl.t;
}

let builder () =
  { buf = Array.make 64 (Add [||]); len = 0; inputs = Hashtbl.create 256 }

let push b node =
  if b.len = Array.length b.buf then begin
    let bigger = Array.make (2 * b.len) (Add [||]) in
    Array.blit b.buf 0 bigger 0 b.len;
    b.buf <- bigger
  end;
  b.buf.(b.len) <- node;
  b.len <- b.len + 1;
  b.len - 1

(** Input gate for a weight tuple; hash-consed so each (w, ā) appears once. *)
let input b key =
  match Hashtbl.find_opt b.inputs key with
  | Some id -> id
  | None ->
      let id = push b (Input key) in
      Hashtbl.replace b.inputs key id;
      id

let const b s = push b (Const s)

(* Children must already exist in the builder: referencing a gate that has
   not been emitted yet would break the creation-order-is-topological
   invariant that evaluation and dynamic maintenance rely on. *)
let check_child b ctx g =
  if g < 0 || g >= b.len then
    Robust.bad_input "Circuit.%s: child gate %d out of range (builder has %d gates)" ctx g
      b.len

(** Addition gate; a single summand collapses to the summand itself. *)
let add b = function
  | [ g ] ->
      check_child b "add" g;
      g
  | gs ->
      List.iter (check_child b "add") gs;
      push b (Add (Array.of_list gs))

(** Multiplication gate; a single factor collapses to the factor itself. *)
let mul b = function
  | [ g ] ->
      check_child b "mul" g;
      g
  | gs ->
      List.iter (check_child b "mul") gs;
      push b (Mul (Array.of_list gs))

(** Permanent gate over a rows × columns matrix of gates. Rows must be
    rectangular: dynamic maintenance ({!Dyn.notify}) decodes a child's
    (row, col) position from a flat slot index as slot / ncols, which is
    meaningless on ragged rows — so those are rejected at construction. *)
let perm b (rows : int array array) =
  if Array.length rows > 0 then begin
    let ncols = Array.length rows.(0) in
    Array.iteri
      (fun r row ->
        if Array.length row <> ncols then
          Robust.bad_input
            "Circuit.perm: ragged permanent gate (row 0 has %d columns, row %d has %d)"
            ncols r (Array.length row))
      rows
  end;
  Array.iter (Array.iter (check_child b "perm")) rows;
  push b (Perm rows)

let finish b ~output =
  if output < 0 || output >= b.len then
    Robust.bad_input "Circuit.finish: output gate %d out of range (builder has %d gates)"
      output b.len;
  (* Validate the topological invariant over every gate — including gates
     emitted through the raw [push] — so hand-built circuits cannot
     silently carry forward or self references that [Dyn]'s wave
     propagation (children settle before parents, by id order) would turn
     into stale values. *)
  for id = 0 to b.len - 1 do
    let check g =
      if g < 0 || g >= id then
        Robust.bad_input
          "Circuit.finish: gate %d references child %d; children must have strictly \
           smaller ids (topological order)"
          id g
    in
    match b.buf.(id) with
    | Input _ | Const _ -> ()
    | Add gs | Mul gs -> Array.iter check gs
    | Perm rows -> Array.iter (Array.iter check) rows
  done;
  { nodes = Array.sub b.buf 0 b.len; output }

(** Gates emitted so far — the cooperative gate-budget probe used by
    [Engine.Compile] while the circuit is still under construction. *)
let builder_len b = b.len

(* --- evaluation --- *)

(** Evaluate under a valuation of the input gates. Linear in circuit size
    (permanent gates via the O(2ᵏ·k·n) DP).

    Empty-gate convention: [Add [||]] evaluates to [ops.zero] and
    [Mul [||]] evaluates to [ops.one] — the fold seeds below are the
    neutral elements, the empty sum and the empty product in every
    semiring. *)
let eval (ops : 'a Semiring.Intf.ops) (c : 'a t) (valuation : input_key -> 'a) : 'a =
  let open Semiring.Intf in
  let values = Array.make (Array.length c.nodes) ops.zero in
  Array.iteri
    (fun id node ->
      values.(id) <-
        (match node with
        | Input key -> valuation key
        | Const s -> s
        | Add gs -> Array.fold_left (fun acc g -> ops.add acc values.(g)) ops.zero gs
        | Mul gs -> Array.fold_left (fun acc g -> ops.mul acc values.(g)) ops.one gs
        | Perm rows -> Perm.Static.perm ops (Array.map (Array.map (fun g -> values.(g))) rows)))
    c.nodes;
  values.(c.output)

(** Output-cone liveness: [(live c).(id)] holds iff gate [id] feeds the
    output. One reverse sweep suffices since children have smaller ids
    than their parents (topological order). *)
let live (c : 'a t) : bool array =
  let n = Array.length c.nodes in
  let live = Array.make n false in
  if n > 0 then live.(c.output) <- true;
  for id = n - 1 downto 0 do
    if live.(id) then
      match c.nodes.(id) with
      | Input _ | Const _ -> ()
      | Add gs | Mul gs -> Array.iter (fun g -> live.(g) <- true) gs
      | Perm rows -> Array.iter (Array.iter (fun g -> live.(g) <- true)) rows
  done;
  live

(* --- statistics (the bounded-ness claims of Theorem 6) --- *)

type stats = {
  gates : int;
  edges : int;
  depth : int;
  max_fan_in : int;
  max_fan_out : int;
  max_perm_rows : int;
  num_perm : int;
  num_inputs : int;
  dead_gates : int;  (** gates outside the output cone *)
}

let stats (c : 'a t) : stats =
  let n = Array.length c.nodes in
  let depth = Array.make n 0 in
  let fan_out = Array.make n 0 in
  let edges = ref 0 in
  let max_fan_in = ref 0 in
  let max_perm_rows = ref 0 in
  let num_perm = ref 0 in
  let num_inputs = ref 0 in
  Array.iteri
    (fun id node ->
      let fan_in = ref 0 in
      let visit g =
        incr fan_in;
        if depth.(g) >= depth.(id) then depth.(id) <- depth.(g) + 1;
        fan_out.(g) <- fan_out.(g) + 1
      in
      (match node with
      | Input _ -> incr num_inputs
      | Const _ -> ()
      | Add gs | Mul gs -> Array.iter visit gs
      | Perm rows ->
          incr num_perm;
          max_perm_rows := max !max_perm_rows (Array.length rows);
          Array.iter (Array.iter visit) rows);
      edges := !edges + !fan_in;
      max_fan_in := max !max_fan_in !fan_in)
    c.nodes;
  let dead = ref 0 in
  Array.iter (fun l -> if not l then incr dead) (live c);
  {
    gates = n;
    edges = !edges;
    depth = Array.fold_left max 0 depth;
    max_fan_in = !max_fan_in;
    max_fan_out = Array.fold_left max 0 fan_out;
    max_perm_rows = !max_perm_rows;
    num_perm = !num_perm;
    num_inputs = !num_inputs;
    dead_gates = !dead;
  }

let pp_stats fmt s =
  Format.fprintf fmt
    "gates=%d edges=%d depth=%d fan_in<=%d fan_out<=%d perm_gates=%d perm_rows<=%d inputs=%d dead=%d"
    s.gates s.edges s.depth s.max_fan_in s.max_fan_out s.num_perm s.max_perm_rows s.num_inputs
    s.dead_gates
