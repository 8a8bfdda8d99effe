(** Arithmetic in GF(2^62) = GF(2)[x] / (m(x)) for an irreducible m of
    degree 62, with field elements packed in the low 62 bits of a native
    [int] — unboxed arithmetic, which matters because this field sits in
    the inner loop of the δ-biased string generator (Lemma 2.5).

    Conventions: an element is a polynomial of degree < 62 in bits
    0..61; a modulus is given by its low 62 bits, the leading x^62 term
    being implicit. *)

type field

val degree : int
(** 62. *)

val make : modulus_low:int -> field
(** [make ~modulus_low] builds GF(2)[x]/(x^62 + low(x)) and its
    reduction table for {!mul}.  Raises [Invalid_argument] if the
    polynomial is reducible. *)

val modulus_low : field -> int

val default : field
(** A fixed field instance for keyed streams and tests. *)

val mul : field -> int -> int -> int
(** [mul f a b] = a·b, 4 bits of [b] at a time: 16 branch-free steps,
    each a 4-bit shift of the accumulator reduced through a 16-entry
    table of v·x^62 mod f (built by {!make}) plus the multiple of [a]
    the nibble selects.  No allocation. *)

val step : field -> int -> int
(** [step f a] = a·x — one LFSR step. *)

val pow_x : field -> int -> int
(** x^i by square-and-multiply ({!pow} at x). *)

val pow : field -> int -> int -> int

val is_irreducible : int -> bool
(** Whether x^62 + low(x) is irreducible, exactly.  A sieve rejects
    most reducible candidates in tens of nanoseconds: an even constant
    term (the factor x), an odd popcount of [low] (an even-weight
    polynomial has the factor x + 1), then trial division by every
    irreducible of degree 2..7 ({!small_divisors}) through packed
    nibble-indexed residue tables (64 lookups in 8 KiB, built at module
    init).  About 85% of random odd candidates stop there.  Rabin's test
    decides the rest: 62 = 2·31, so irreducibility amounts to x^(2^62) =
    x (mod f) and gcd(x^(2^31) − x, f) = gcd(x^2 − x, f) = 1.  Every
    step is exact, so the answer is the same as Rabin's alone. *)

val first_irreducible : (int -> int) -> field
(** [first_irreducible cand] is the field of the first [cand i], for
    i = 0, 1, …, that {!is_irreducible} accepts (the search behind
    {!random_irreducible} and [Smallbias.Generator.of_seed]).  The
    modulus is not tested again. *)

val random_irreducible : Util.Rng.t -> int
(** Rejection-sample the low bits of an irreducible degree-62
    polynomial. *)

val small_divisors : int array
(** The sieve's divisors: every irreducible polynomial over GF(2) of
    degree 2..7 (39 of them), as full bit patterns (x^2 + x + 1 is [0b111]),
    ascending. *)

val small_residue : int -> int -> int
(** [small_residue p i] is p mod [small_divisors.(i)] for a polynomial
    [p] of degree at most 62 (bit 62 may be set), read from the sieve's
    tables.  Exposed so that tests can check every table entry against
    polynomial division. *)

val popcount_int : int -> int
(** Population count of a native int's low 62 bits (helper exposed for
    the generator's parities). *)

val parity_int : int -> int
