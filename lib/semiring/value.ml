(** Dynamically-typed semiring values and first-class semiring descriptors.

    Nested weighted queries (Section 7) mix several semirings inside one
    formula, so the nested-query evaluator works over a single universal
    value type. Each semiring is a {!descr} record; a separate type checker
    in [lib/nested] guarantees that well-typed formulas never mix values
    from different descriptors at runtime. *)

type t =
  | B of bool  (** boolean semiring B *)
  | I of int  (** ℕ, ℤ, or ℤ/kℤ on machine ints *)
  | Q of Rat.t  (** exact rationals *)
  | T of Instances.extended  (** min-plus / min-max values over ℕ ∪ {∞} *)
  | M of Tropical.maxplus  (** max-plus values over ℤ ∪ {−∞} *)
  | RM of Rat.t option  (** rational max-plus: ℚ ∪ {−∞}, [None] = −∞ *)

let equal a b =
  match (a, b) with
  | B x, B y -> Bool.equal x y
  | I x, I y -> Int.equal x y
  | Q x, Q y -> Rat.equal x y
  | T x, T y -> Instances.equal_extended x y
  | M x, M y -> Tropical.Max_plus.equal x y
  | RM None, RM None -> true
  | RM (Some x), RM (Some y) -> Rat.equal x y
  | _ -> false

let pp fmt = function
  | B b -> Format.pp_print_bool fmt b
  | I i -> Format.pp_print_int fmt i
  | Q q -> Rat.pp fmt q
  | T e -> Instances.pp_extended fmt e
  | M m -> Tropical.Max_plus.pp fmt m
  | RM None -> Format.pp_print_string fmt "−∞"
  | RM (Some q) -> Rat.pp fmt q

let to_string v = Format.asprintf "%a" pp v

exception Type_error of string

let type_error what v = raise (Type_error (Printf.sprintf "%s: got %s" what (to_string v)))
let as_bool = function B b -> b | v -> type_error "expected bool" v
let as_int = function I i -> i | v -> type_error "expected int" v
let as_rat = function Q q -> q | v -> type_error "expected rational" v

(** How circuit updates may be accelerated for this semiring (Section 4). *)
type kind =
  | General  (** logarithmic updates (Corollary 13) *)
  | Ring of (t -> t)  (** additive inverse: constant updates (Corollary 17) *)
  | Finite of t list  (** counting gates: constant updates (Corollary 20) *)

type descr = {
  name : string;  (** identity for type checking; two descriptors with the same name are the same semiring *)
  zero : t;
  one : t;
  add : t -> t -> t;
  mul : t -> t -> t;
  kind : kind;
}

let same_sr a b = String.equal a.name b.name

(** Package a static semiring module as a dynamic descriptor. *)
let of_module (type a) ~name ~inject ~project ?neg ?elements
    (module S : Intf.BASIC with type t = a) : descr =
  let lift2 f x y = inject (f (project x) (project y)) in
  let kind =
    match (neg, elements) with
    | Some n, _ -> Ring (fun x -> inject (n (project x)))
    | None, Some es -> Finite (List.map inject es)
    | None, None -> General
  in
  { name; zero = inject S.zero; one = inject S.one; add = lift2 S.add; mul = lift2 S.mul; kind }

let bool_sr : descr =
  of_module ~name:"bool" ~inject:(fun b -> B b) ~project:as_bool
    ~elements:Instances.Bool.elements
    (module Instances.Bool)

let nat_sr : descr =
  of_module ~name:"nat" ~inject:(fun i -> I i) ~project:as_int (module Instances.Nat)

let int_sr : descr =
  of_module ~name:"int" ~inject:(fun i -> I i) ~project:as_int
    ~neg:Instances.Int_ring.neg
    (module Instances.Int_ring)

let rat_sr : descr =
  of_module ~name:"rat" ~inject:(fun q -> Q q) ~project:as_rat ~neg:Rat.Ring.neg
    (module Rat.Ring)

let min_plus_sr : descr =
  of_module ~name:"min-plus"
    ~inject:(fun e -> T e)
    ~project:(function T e -> e | v -> type_error "expected tropical" v)
    (module Tropical.Min_plus)

let max_plus_sr : descr =
  of_module ~name:"max-plus"
    ~inject:(fun m -> M m)
    ~project:(function M m -> m | v -> type_error "expected max-plus" v)
    (module Tropical.Max_plus)

let min_max_sr : descr =
  of_module ~name:"min-max"
    ~inject:(fun e -> T e)
    ~project:(function T e -> e | v -> type_error "expected min-max" v)
    (module Instances.Min_max)

(** (ℚ ∪ {−∞}, max, +) — the outer semiring of the neighbor-average
    example in the paper's introduction. *)
let rat_max_sr : descr =
  {
    name = "rat-max";
    zero = RM None;
    one = RM (Some Rat.zero);
    add =
      (fun a b ->
        match (a, b) with
        | RM None, x | x, RM None -> x
        | RM (Some p), RM (Some q) -> RM (Some (if Rat.compare p q >= 0 then p else q))
        | v, _ -> type_error "rat-max add" v);
    mul =
      (fun a b ->
        match (a, b) with
        | RM None, _ | _, RM None -> RM None
        | RM (Some p), RM (Some q) -> RM (Some (Rat.add p q))
        | v, _ -> type_error "rat-max mul" v);
    kind = General;
  }

let zmod_sr k : descr =
  let module Z = Zmod.Make (struct let modulus = k end) in
  of_module
    ~name:(Printf.sprintf "zmod%d" k)
    ~inject:(fun i -> I i) ~project:as_int ~elements:Z.elements
    (module Z)

(** First-class operations for a descriptor (feeds the runtime-semiring
    permanent and circuit engines). *)
let ops_of_descr (d : descr) : t Intf.ops =
  {
    Intf.zero = d.zero;
    one = d.one;
    add = d.add;
    mul = d.mul;
    equal;
    neg = (match d.kind with Ring n -> Some n | _ -> None);
    elements = (match d.kind with Finite es -> Some es | _ -> None);
  }

(** Connectives c : S₁ × ⋯ × Sₖ → S transferring between semirings
    (Section 7). The argument and output descriptors drive type checking. *)
type connective = {
  cname : string;
  args : descr list;
  out : descr;
  apply : t list -> t;
}

let binop_int_bool cname f =
  {
    cname;
    args = [ nat_sr; nat_sr ];
    out = bool_sr;
    apply = (function [ I a; I b ] -> B (f a b) | _ -> raise (Type_error cname));
  }

let lt = binop_int_bool "<" ( < )
let leq = binop_int_bool "<=" ( <= )
let gt = binop_int_bool ">" ( > )
let geq = binop_int_bool ">=" ( >= )
let eq_int = binop_int_bool "=" ( = )

(** Total division on ℚ, with p/0 = 0 as in the paper. *)
let div_rat =
  {
    cname = "/";
    args = [ rat_sr; rat_sr ];
    out = rat_sr;
    apply =
      (function
      | [ Q a; Q b ] -> Q (Rat.div_total a b) | _ -> raise (Type_error "/"));
  }

(** Division ℕ × ℕ → ℚ, as in the neighbor-average example of Section 1. *)
let div_nat_rat =
  {
    cname = "div_nat";
    args = [ nat_sr; nat_sr ];
    out = rat_sr;
    apply =
      (function
      | [ I a; I b ] -> Q (Rat.div_total (Rat.of_int a) (Rat.of_int b))
      | _ -> raise (Type_error "div_nat"));
  }

(** ℕ → max-plus embedding, used to aggregate rationals' numerators is not
    needed; this maps a natural to the max-plus value with the same weight. *)
let nat_to_max_plus =
  {
    cname = "to_max_plus";
    args = [ nat_sr ];
    out = max_plus_sr;
    apply =
      (function [ I a ] -> M (Tropical.MFin a) | _ -> raise (Type_error "to_max_plus"));
  }

(** Iverson bracket [·]_S : B → S for a target semiring. *)
let iverson (s : descr) =
  {
    cname = "[·]_" ^ s.name;
    args = [ bool_sr ];
    out = s;
    apply =
      (function [ B b ] -> (if b then s.one else s.zero) | _ -> raise (Type_error "iverson"));
  }

(** ℚ → rational max-plus embedding (for the neighbor-average example). *)
let rat_to_rat_max =
  {
    cname = "to_rat_max";
    args = [ rat_sr ];
    out = rat_max_sr;
    apply = (function [ Q q ] -> RM (Some q) | _ -> raise (Type_error "to_rat_max"));
  }
