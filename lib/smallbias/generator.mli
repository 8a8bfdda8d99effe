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
    valid seed: f is the {e first} irreducible candidate of the stream
    keyed by [a] (candidate i is the low 62 bits of
    [Util.Rng.at ~seed:a i], constant term forced to 1), and s the first
    nonzero low 62 bits of the stream keyed by [b].  That choice is the
    specification, whichever exact irreducibility test finds it (today
    {!Gf.Gf2k.is_irreducible}'s sieve, then Rabin's test).  This is the
    function G of Lemma 2.5 as used by the randomness-exchange protocol:
    both endpoints apply it to the same exchanged bits and obtain the
    same generator. *)

val fresh : t -> t
(** [fresh g] is a new generator on [g]'s seed: cursor at word 0, no
    tables built, nothing mutable shared with [g].  Equal to
    [create ~f ~s] on [seed g], without testing f again. *)

val seed : t -> int * int
(** The (f, s) pair, for serialization. *)

val next_word : t -> int64
(** The next 64 output bits (bit j of the result is stream bit
    [64*cursor + j]); advances the cursor by one word.  One step of a
    byte-tabulated linear map: 8 table lookups. *)

val reduce : t -> Bytes.t -> n:int -> last_lo:int -> last_hi:int -> int
(** [reduce g x ~n ~last_lo ~last_hi] is the field element Σ_k X_k·x^(64k)
    mod f, where the input words X_0, …, X_(n-1) are [x]'s words 0, …,
    [n-2], then [last_hi·2^32 + last_lo] ([last_lo], [last_hi] are
    32-bit halves).  [x] is laid out as {!Util.Bitvec.backing}: word [k]
    is the little-endian 64-bit integer at byte offset [8k].  One
    byte-table step (8 lookups) per word; the cursor does not move.
    Raises [Invalid_argument] unless [1 <= n <= Bytes.length x / 8 + 1]. *)

val parities : t -> int -> offset:int -> stride:int -> tau:int -> int
(** [parities g r ~offset ~stride ~tau], for [r = reduce g x ~n …]: bit
    [j] (for [j < tau]) is the parity of the input's [n] words ANDed
    with stream words [offset + j·stride], …, [offset + j·stride + n -
    1], computed as ⟨x^(64·(offset + j·stride))·r, s⟩.  One field
    product per slab (a byte-table step when [stride = 1]), plus the
    powers x^(64·offset) and x^(64·stride) (see {!seek_word}).  The
    cursor does not move, and nothing is allocated once the tables are
    built.  Raises [Invalid_argument] if [offset < 0] or [stride < 1]. *)

val word_index : t -> int
(** Current cursor position in words. *)

val seek_word : t -> int -> unit
(** Move the cursor to an absolute word index [i], any [0 <= i <= max_int].
    A no-op when the cursor is already there; otherwise, in either
    direction, it builds the field state x^(64·i) from a byte-window
    power table (row k holds x^(64·d·256^k), d < 256): one
    {!Gf.Gf2k.mul} per nonzero byte of i after the first, so at most two
    below 2^24.  A byte table then maps the state to the 62-bit output
    window.  About 0.15 µs on a 2-core x86-64 host.  A generator builds
    its tables on first use: the two window tables (32 KiB) on its
    first word or seek, the x^64 byte table and the power table (34
    KiB, with 2 KiB of scratch for filling rows) on its first seek or
    hash, and a power row (8k squarings, then 254 nibble-table products
    of 16 lookups each) the first time a power has a nonzero byte in its
    position k.
    After [seek_word g i], [next_word g] returns word [i].  Raises
    [Invalid_argument] if [i < 0]. *)

val bit_at : t -> int -> bool
(** Random access to a single stream bit (does not move the cursor). *)
