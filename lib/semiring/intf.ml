(** Signatures for commutative semirings (paper, Section 2).

    All semirings in this library are commutative: both [add] and [mul] are
    commutative and associative, [mul] distributes over [add], [zero] is
    neutral for [add] and absorbing for [mul], [one] is neutral for [mul]. *)

module type BASIC = sig
  type t

  val zero : t
  val one : t
  val add : t -> t -> t
  val mul : t -> t -> t
  val equal : t -> t -> bool
  val pp : Format.formatter -> t -> unit
end

(** A ring additionally has additive inverses, enabling the constant-time
    update strategies of Lemma 15 / Corollary 17. *)
module type RING = sig
  include BASIC

  val neg : t -> t
  val sub : t -> t -> t
end

(** A finite semiring lists its elements, enabling the counting-gate
    strategy of Lemma 18 / Corollary 20. *)
module type FINITE = sig
  include BASIC

  val elements : t list
end

(** First-class semiring operations, for components that choose the
    semiring at runtime (the nested-query evaluator of Section 7 mixes
    several semirings inside one formula). [neg] is present for rings,
    [elements] for finite semirings — these unlock the constant-update
    strategies of Corollaries 17 and 20. Nothing here describes the
    carrier's runtime representation: the circuit runtime keeps gate
    values in one plain ['a array] for every semiring. *)
type 'a ops = {
  zero : 'a;
  one : 'a;
  add : 'a -> 'a -> 'a;
  mul : 'a -> 'a -> 'a;
  equal : 'a -> 'a -> bool;
  neg : ('a -> 'a) option;
  elements : 'a list option;
}

let ops_of_module (type a) (module S : BASIC with type t = a) : a ops =
  {
    zero = S.zero;
    one = S.one;
    add = S.add;
    mul = S.mul;
    equal = S.equal;
    neg = None;
    elements = None;
  }

let ops_of_ring (type a) (module R : RING with type t = a) : a ops =
  { (ops_of_module (module R)) with neg = Some R.neg }

let ops_of_finite (type a) (module F : FINITE with type t = a) : a ops =
  { (ops_of_module (module F)) with elements = Some F.elements }

(** The identity. It once selected an unboxed value store for int-carried
    semirings; perfbench/ is its last caller, and it goes with the next
    change to the benchmark. *)
let with_int_repr (o : int ops) : int ops = o

(** Iterated sum [n · s = s + ... + s] ([n] times), with [0 · s = zero]. *)
let iterate (type a) (module S : BASIC with type t = a) (n : int) (s : a) : a =
  let rec go acc n = if n <= 0 then acc else go (S.add acc s) (n - 1) in
  go S.zero n

(** Iterated product [s^n], with [s^0 = one]. *)
let power (type a) (module S : BASIC with type t = a) (s : a) (n : int) : a =
  let rec go acc n = if n <= 0 then acc else go (S.mul acc s) (n - 1) in
  go S.one n

(** Sum of a list. *)
let sum (type a) (module S : BASIC with type t = a) (l : a list) : a =
  List.fold_left S.add S.zero l

(** Product of a list. *)
let product (type a) (module S : BASIC with type t = a) (l : a list) : a =
  List.fold_left S.mul S.one l
