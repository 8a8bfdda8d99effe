(** δ-biased pseudorandom strings from short seeds (paper §2.3, Lemma 2.5).

    Implements the linear-feedback-shift-register construction of Alon,
    Goldreich, Håstad and Peralta ("Simple constructions of almost k-wise
    independent random variables", 1992), which is one of the two
    constructions the paper cites: the seed is a pair (f, s) of a random
    irreducible polynomial f of degree 62 over GF(2) and a nonzero start
    state s ∈ GF(2^62); output bit i is ⟨x^i mod f, s⟩.

    A string of n bits produced this way has bias at most (n−1)/2^61 over
    the choice of seed — far below the 2^{-Θ(|Π|K/m)} the coding scheme
    requires for the parameter ranges we simulate, while the seed is only
    124 random bits and therefore cheap to exchange over a noisy link
    (Algorithm 5). *)

type t

val seed_bits : int
(** Number of uniform seed bits consumed by {!of_seed} (128). *)

val create : f:int -> s:int -> t
(** [create ~f ~s] builds a generator from the low bits of an irreducible
    degree-62 polynomial [f] and a nonzero start state [s] (low 62 bits).
    Raises [Invalid_argument] if [f] is reducible or [s] is zero. *)

val sample : Util.Rng.t -> t
(** Sample a uniformly random seed (rejection-samples the irreducible f). *)

val of_seed : int64 * int64 -> t
(** [of_seed (a, b)] deterministically expands 128 uniform bits into a
    valid seed: [a] seeds the search for an irreducible f, [b] gives the
    start state.  This is the function G of Lemma 2.5 as used by the
    randomness-exchange protocol: both endpoints apply it to the same
    exchanged bits and obtain the same generator. *)

val seed : t -> int * int
(** The (f, s) pair, for serialization. *)

val next_word : t -> int64
(** The next 64 output bits (bit j of the result is stream bit
    [64*cursor + j]); advances the cursor by one word. *)

val word_index : t -> int
(** Current cursor position in words. *)

val seek_word : t -> int -> unit
(** Move the cursor to an absolute word index.  A no-op when the cursor
    is already there; otherwise, in either direction, it computes the
    state x^(64·i) from scratch by square-and-multiply ([Gf2k.pow_x]:
    O(log i) bit-serial field multiplications, no table) and then rebuilds the
    62-bit output window in 62 LFSR steps.
    After [seek_word g i], [next_word g] returns word [i]. *)

val bit_at : t -> int -> bool
(** Random access to a single stream bit (does not move the cursor). *)
