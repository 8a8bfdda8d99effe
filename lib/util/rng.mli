(** Deterministic pseudo-random number generation (SplitMix64).

    Every randomized component of the library takes an explicit [Rng.t] so
    that all experiments are reproducible from a single integer seed.  The
    generator is SplitMix64 (Steele, Lea & Flood, OOPSLA 2014): a 64-bit
    counter-based generator with a strong output mixer, which also supports
    cheap stateless access ([at]) used for lazily-evaluated CRS streams. *)

type t

val create : int -> t
(** [create seed] makes a fresh generator from an integer seed. *)

val of_key : string -> t
(** [of_key s] derives a generator from an arbitrary string key (FNV-1a). *)

val split : t -> t
(** [split t] returns an independent generator derived from [t], advancing
    [t].  Splitting lets components own private streams without sharing. *)

val copy : t -> t
(** [copy t] duplicates the current state (same future outputs). *)

val int64 : t -> int64
(** Next raw 64-bit output. *)

val bits : t -> int
(** Next 30 uniform bits as a non-negative [int]. *)

val int : t -> int -> int
(** [int t bound] is uniform in [0, bound). Requires [bound > 0]. *)

val bool : t -> bool
(** Next uniform bit. *)

val float : t -> float
(** Uniform float in [0, 1). *)

val at : seed:int64 -> int -> int64
(** [at ~seed i] is the [i]-th word of the stateless stream keyed by [seed]:
    the SplitMix64 output for counter [seed + i * gamma].  Two calls with the
    same arguments always agree, which makes it suitable as a lazily
    materialised common random string. *)

val coord : width:int -> int -> int -> int
(** [coord ~width row col] is the {!at} index of cell [(row, col)] of a
    keyed grid [width] columns wide, such as (round, directed link) or
    (iteration, party).  For [col < width] it is the row-major index
    [row * width + col].  From [col >= width] on it is an
    index in a region that no in-width cell reaches (near [min_int]),
    injective in [(row, col)], so cell [(r, width + c)] does not draw
    the word of [(r + 1, c)].  Requires [row >= 0] and [col >= 0]. *)

val mix : int64 -> int64
(** The SplitMix64 finalizer, exposed for key derivation. *)
