(** Polynomials over GF(256), coefficient arrays with index = degree.
    Internal substrate of the Reed–Solomon codec. *)

type t = int array

val zero : t
val is_zero : t -> bool
val degree : t -> int
(** Degree, with [degree zero = -1]. *)

val normalize : t -> t
(** Drop leading zero coefficients. *)

val add : t -> t -> t
val scale : int -> t -> t
val mul : t -> t -> t
val shift : int -> t -> t
(** [shift k p] = x^k * p. *)

val trunc : int -> t -> t
(** [trunc k p] = p mod x^k. *)

val eval : t -> int -> int
(** Horner evaluation. *)

val deriv : t -> t
(** Formal derivative (over GF(2^m): even-degree terms vanish). *)

val divmod : t -> t -> t * t
(** [divmod a b] = (quotient, remainder); raises on division by zero. *)

