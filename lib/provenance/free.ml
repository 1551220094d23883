(** The free commutative semiring F_A (provenance semiring, Section 5),
    in two representations:

    - {b explicit}: an element is a sorted list of monomials, each a sorted
      list of generators — exact but possibly huge; used as the test oracle
      and for provenance of small instances;
    - {b enumerated}: an element is an iterator over its monomials
      (repetitions allowed), the representation Theorem 22 computes with.

    Generators are polymorphic; FO enumeration instantiates them with
    (variable index, element) pairs, provenance analysis with edge or tuple
    identifiers. *)

type 'g mono = 'g list
(** A monomial: a multiset of generators, kept sorted. *)

let mono_one : 'g mono = []
let mono_of_list l = List.sort compare l

(** Explicit free-semiring elements: multisets of monomials as sorted
    lists. This IS a commutative semiring, packaged for reuse of the
    generic machinery (the test oracle for Theorem 22). *)
module Explicit = struct
  type 'g t = 'g mono list  (* sorted *)

  let zero : 'g t = []
  let one : 'g t = [ mono_one ]
  let of_mono m : 'g t = [ m ]
  let add (a : 'g t) (b : 'g t) : 'g t = List.merge compare a b

  let mul (a : 'g t) (b : 'g t) : 'g t =
    List.sort compare (List.concat_map (fun ma -> List.map (List.merge compare ma) b) a)

  let equal a b = a = b

  let pp pp_gen fmt (x : 'g t) =
    match x with
    | [] -> Format.pp_print_string fmt "0"
    | _ ->
        Format.pp_print_list
          ~pp_sep:(fun f () -> Format.pp_print_string f " + ")
          (fun f m ->
            match m with
            | [] -> Format.pp_print_string f "1"
            | _ ->
                Format.pp_print_list
                  ~pp_sep:(fun f () -> Format.pp_print_string f "·")
                  pp_gen f m)
          fmt x

  (** First-class ops for a fixed generator type (for circuit evaluation
      as a test oracle). *)
  let ops () : 'g t Semiring.Intf.ops =
    {
      Semiring.Intf.zero;
      one;
      add;
      mul;
      equal;
      neg = None;
      elements = None;
    }
end
