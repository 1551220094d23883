(** Constant-delay enumeration of the answers to a first-order query
    (Theorem 24, re-proving Kazana–Segoufin).

    For a quantifier-free φ(x₁ … x_k), the free-semiring expression

        f = Σ_x̄ [φ(x̄)] · w₁(x₁) ⋯ w_k(x_k),    wᵢ(a) = the generator e(i,a),

    evaluates to the formal sum with exactly one monomial e(1,a₁)⋯e(k,a_k)
    per answer ā. Compiling f (Theorem 6, with boolean constants) and
    enumerating it through the provenance machinery (Theorem 22) yields the
    answers with constant delay and no repetitions, after linear-time
    preprocessing.

    Existential quantifiers whose subformula has at most one free variable
    are eliminated by pointwise materialization into fresh unary relations
    (the guarded fragment of the Theorem 26 induction); other quantifier
    patterns require the full quantifier elimination of Theorem 3 and are
    rejected (see DESIGN.md §3).

    With [~dynamic:true], relation literals are compiled as the v⁺/v⁻
    weights of Lemma 40, so Gaifman-preserving updates ({!set_tuple}) need
    no recompilation: the update is O(1) on the instance and records the
    changed v± inputs with their new values, and the next enumerator
    gives only those inputs their last values and brings the shared
    emptiness index up to date from them (see {!Provenance.Prov_circuit})
    before it yields its first answer. *)

type gen = int * int  (** (variable position, element) *)

type t = {
  free_vars : string list;
  prov : gen Provenance.Prov_circuit.t;
  inst : Db.Instance.t;  (** shared; mutable through set_tuple when dynamic *)
  gaifman : Graphs.Graph.t option;
      (** dynamic mode only: the Gaifman graph the circuit was compiled
          for, which {!set_tuple} must preserve *)
  rel_keys : (string * (string * bool) list) list;
      (** dynamic mode only: for each relation, the names of its v⁺/v⁻
          weights that occur as circuit inputs, each with its polarity
          ([true] for v⁺) *)
}

let weight_sym i = Printf.sprintf "__enum%d" i

(* What a weight symbol of the compiled expression stands for. *)
type weight_kind = Enum_var of int | Pos of string | Neg of string

(* Theorem 24 observables (scope "fo_enum"): linear-time preprocessing and
   constant per-answer delay. [answer_work] is the per-answer iterator
   tick delta — the machine-independent form of the constant-delay claim;
   [answer_ns] its wall-clock shadow, sampled. *)
let m_prepares = Obs.counter ~scope:"fo_enum" "prepares"
let m_answers = Obs.counter ~scope:"fo_enum" "answers"
let m_updates = Obs.counter ~scope:"fo_enum" "updates"
let h_prepare_ns = Obs.histogram ~scope:"fo_enum" "prepare_ns"
let h_answer_ns = Obs.histogram ~scope:"fo_enum" "answer_ns"
let h_answer_work = Obs.histogram ~scope:"fo_enum" "answer_work"

(* Copy [inst] with one extra unary relation [r] filled by [holds]. *)
let with_unary_relation inst r holds =
  let n = Db.Instance.n inst in
  let schema = Db.Schema.add_rel (Db.Instance.schema inst) (r, 1) in
  let inst' = Db.Instance.create schema ~n in
  List.iter
    (fun (rel, _) ->
      if rel <> r then
        Db.Instance.iter_tuples inst rel (fun tup -> Db.Instance.add inst' rel tup))
    schema.Db.Schema.rels;
  for a = 0 to n - 1 do
    if holds a then Db.Instance.add inst' r [ a ]
  done;
  inst'

(** Replace ∃-subformulas with at most one free variable by materialized
    unary relations, bottom-up (the Theorem 26 induction restricted to
    guards). Returns the possibly extended instance and the quantifier-free
    rewriting. *)
let materialize_guarded (inst : Db.Instance.t) (f : Logic.Formula.t) :
    Db.Instance.t * Logic.Formula.t =
  if Logic.Formula.is_quantifier_free f then (inst, f)
  else begin
    let inst = ref inst in
    let counter = ref 0 in
    let rec go f =
      match f with
      | Logic.Formula.True | Logic.Formula.False | Logic.Formula.Rel _ | Logic.Formula.Eq _
        ->
          f
      | Logic.Formula.Not g -> Logic.Formula.Not (go g)
      | Logic.Formula.And gs -> Logic.Formula.And (List.map go gs)
      | Logic.Formula.Or gs -> Logic.Formula.Or (List.map go gs)
      | Logic.Formula.Forall (x, g) ->
          go (Logic.Formula.Not (Exists (x, Logic.Formula.Not g)))
      | Logic.Formula.Exists (x, g) -> (
          let g = go g in
          let n = Db.Instance.n !inst in
          let exists_with env =
            let rec any v = v < n && (Logic.Formula.holds !inst ((x, v) :: env) g || any (v + 1)) in
            any 0
          in
          match List.filter (fun y -> y <> x) (Logic.Formula.free_vars_unique g) with
          | [] -> if exists_with [] then Logic.Formula.True else Logic.Formula.False
          | [ y ] ->
              incr counter;
              let r = Printf.sprintf "__mat%d" !counter in
              inst := with_unary_relation !inst r (fun a -> exists_with [ (y, a) ]);
              Logic.Formula.Rel (r, [ Logic.Term.Var y ])
          | _ ->
              Robust.unsupported
                "Fo_enum: quantified subformula with 2+ free variables requires full \
                 quantifier elimination (not implemented; see DESIGN.md)")
    in
    let f' = go f in
    (!inst, f')
  end

(** Preprocess a first-order query for enumeration. [order] fixes the
    output component order (defaults to sorted free variables);
    [dynamic:true] compiles relations as Lemma 40 weights so that
    {!set_tuple} works without recompiling (requires φ quantifier-free). *)
let prepare ?order ?(dynamic = false) ?opt ?budget (inst : Db.Instance.t)
    (phi : Logic.Formula.t) : t =
  Obs.Counter.incr m_prepares;
  Obs.Trace.span ~scope:"fo_enum" "prepare"
    ~attrs:[ ("dynamic", Obs.Trace.B dynamic) ]
  @@ fun () ->
  Obs.Timer.time h_prepare_ns @@ fun () ->
  if dynamic && not (Logic.Formula.is_quantifier_free phi) then
    Robust.unsupported "Fo_enum: dynamic mode requires a quantifier-free query";
  let inst = if dynamic then Db.Instance.copy inst else inst in
  let inst, phi = materialize_guarded inst phi in
  let fv =
    match order with Some o -> o | None -> Logic.Formula.free_vars_unique phi
  in
  let expr =
    Logic.Expr.Sum
      ( fv,
        Logic.Expr.Mul
          (Logic.Expr.Guard phi
          :: List.mapi
               (fun i x -> Logic.Expr.Weight (weight_sym i, [ Logic.Term.Var x ]))
               fv) )
  in
  let dynamic_rels =
    if dynamic then List.map fst (Db.Instance.schema inst).Db.Schema.rels else []
  in
  (* each weight symbol decoded once, not at every input read *)
  let kinds = Hashtbl.create 8 in
  List.iteri (fun i _ -> Hashtbl.replace kinds (weight_sym i) (Enum_var i)) fv;
  List.iter
    (fun r ->
      Hashtbl.replace kinds (Shapes.Forest_compile.pos_weight r) (Pos r);
      Hashtbl.replace kinds (Shapes.Forest_compile.neg_weight r) (Neg r))
    dynamic_rels;
  let prov =
    Provenance.Prov_circuit.prepare ?opt ~dynamic_rels ?budget inst expr ~weight:(fun w tuple ->
        match Hashtbl.find_opt kinds w with
        | Some (Enum_var i) -> (
            match tuple with
            | [ a ] -> [ [ (i, a) ] ]
            | _ -> invalid_arg "Fo_enum: enumeration weights are unary")
        (* Lemma 40: v⁺_R = [R(ā)], v⁻_R = [¬R(ā)], read from the live instance *)
        | Some (Pos r) -> if Db.Instance.mem inst r tuple then [ [] ] else []
        | Some (Neg r) -> if Db.Instance.mem inst r tuple then [] else [ [] ]
        | None -> invalid_arg ("Fo_enum: unexpected weight " ^ w))
  in
  let rel_keys =
    List.map
      (fun r ->
        ( r,
          List.filter
            (fun (w, _) ->
              Array.exists (fun (w', _) -> String.equal w w') prov.cc.input_keys)
            [
              (Shapes.Forest_compile.pos_weight r, true);
              (Shapes.Forest_compile.neg_weight r, false);
            ] ))
      dynamic_rels
  in
  let gaifman = if dynamic then Some (Db.Instance.gaifman inst) else None in
  { free_vars = fv; prov; inst; gaifman; rel_keys }

(** Checked preparation: every exception the enumeration pipeline can
    raise — unguarded quantification, compile budgets, malformed instances
    — comes back as a classified [Robust.error] instead of escaping. *)
let prepare_checked ?order ?dynamic ?opt ?budget (inst : Db.Instance.t)
    (phi : Logic.Formula.t) : (t, Robust.error) result =
  Robust.protect
    ~classify:(function
      | Logic.Normal.Not_quantifier_free f ->
          Some
            (Robust.Unsupported_fragment
               (Format.asprintf "quantifier inside a compiled guard: %a" Logic.Formula.pp
                  f))
      | _ -> None)
    (fun () -> prepare ?order ?dynamic ?opt ?budget inst phi)

let free_vars t = t.free_vars

(** The (possibly copied/extended) instance the enumerator reads. *)
let instance t = t.inst

let meta t = Provenance.Prov_circuit.meta t.prov

(** Circuit parameters of the Theorem 22 preprocessing output (gate
    count, depth, permanent rows), for observability surfaces. *)
let stats t = Provenance.Prov_circuit.circuit_stats t.prov

(* write a leaf's generators into an answer tuple *)
let rec fill ans = function
  | [] -> ()
  | (i, a) :: rest ->
      ans.(i) <- a;
      fill ans rest

(* the answer a live run stands at, read from its live leaves *)
let decode k r : int array =
  let ans = Array.make k (-1) in
  Provenance.Prov_circuit.iter_value r fill ans;
  ans

(* One movement of an enumeration run [r], observed: each movement that
   lands on an answer counts it and records its iterator-tick work, and
   one movement in 64, counted across all enumerators ({!Obs.sampler}),
   also records its delay and, if it lands on an answer, a trace span (a
   full enumeration can yield millions of answers, and the constant-delay
   claim needs only a sample). It reads no answer. *)
let answer_sample = Obs.sampler ()

let observed_step r dir =
  let hit = Obs.sampled answer_sample in
  let t0 = if hit then Obs.now_ns () else 0. in
  let ticks0 = !Enum.Iter.ticks in
  Provenance.Prov_circuit.step r dir;
  if Provenance.Prov_circuit.live r then begin
    Obs.Counter.incr m_answers;
    let work = !Enum.Iter.ticks - ticks0 in
    Obs.Histogram.observe_int h_answer_work work;
    if hit then begin
      Obs.Histogram.observe h_answer_ns (Obs.elapsed_ns t0);
      Obs.Trace.complete ~scope:"fo_enum" "answer" ~start_ns:t0
        ~attrs:[ ("work", Obs.Trace.I work) ]
    end
  end

(** A fresh constant-delay enumerator over the answers (each exactly
    once): one {!Enum.Iter.t} handle over a {!Provenance.Prov_circuit.run},
    observed when metrics are enabled at its creation. Enumerators share
    one emptiness index: an enumerator stays valid across later
    {!set_tuple} calls (it keeps yielding the answers of the data it was
    created on) until the next [enumerate] drains those updates; after
    that its [next]/[prev] raise [Robust.Error (Bad_input _)] (a stale
    enumerator). *)
let enumerate t : int array Enum.Iter.t =
  let k = List.length t.free_vars in
  let r = Provenance.Prov_circuit.start t.prov in
  let step =
    if Obs.is_enabled () then observed_step r
    else Provenance.Prov_circuit.step r
  in
  {
    Enum.Iter.current =
      (fun () ->
        if Provenance.Prov_circuit.live r then Some (decode k r)
        else None);
    next = (fun () -> step 1);
    prev = (fun () -> step (-1));
    reset = (fun () -> Provenance.Prov_circuit.reset r);
    is_empty = (fun () -> Provenance.Prov_circuit.is_empty r);
  }

(** All answers as a list (a full enumeration pass, for tests and small
    outputs). *)
let answers t = Enum.Iter.to_list (enumerate t)

(* The value of a v± input that holds: the empty monomial. One that does
   not holds no monomial, [[||]]. v⁺_R(ā) holds iff R(ā) is present,
   v⁻_R(ā) iff it is absent. *)
let holds : gen Provenance.Free.mono array = [| Provenance.Free.mono_one |]

let rec touch_all prov tuple (present : bool) = function
  | [] -> ()
  | (w, pos) :: ws ->
      Provenance.Prov_circuit.touch prov w tuple (if pos = present then holds else [||]);
      touch_all prov tuple present ws

let rec keys_of rel = function
  | [] -> invalid_arg ("Fo_enum.set_tuple: unknown relation " ^ rel)
  | (r, keys) :: rest -> if String.equal r rel then keys else keys_of rel rest

(** Gaifman-preserving update (dynamic mode only): add or remove a tuple
    of an existing relation whose elements already form a clique of the
    Gaifman graph taken at {!prepare} (or of [gaifman], when given). O(1)
    plus the clique check; enumerators created afterwards see the new
    data, with no recompilation. A call that leaves the tuple's membership
    as it was records nothing. *)
let set_tuple t ?gaifman rel tuple present =
  let prepared =
    match t.gaifman with
    | Some g -> g
    | None -> Robust.bad_input "Fo_enum.set_tuple: prepare with ~dynamic:true for updates"
  in
  Obs.Counter.incr m_updates;
  if present then begin
    let g = Option.value gaifman ~default:prepared in
    if not (Db.Instance.clique_in g tuple) then
      Robust.bad_input "Fo_enum.set_tuple: tuple would change the Gaifman graph"
  end;
  (* set semantics: setting an already-present tuple is a no-op, unlike
     the strict [Instance.add] used by structural deltas *)
  if Db.Instance.set t.inst rel tuple present then
    touch_all t.prov tuple present (keys_of rel t.rel_keys)
