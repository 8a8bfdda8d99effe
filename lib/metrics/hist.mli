(** Lock-free log-bucketed (HDR-style) histogram over non-negative
    integer values.

    Values 0–15 get exact buckets; above that each power-of-two octave
    is split into 8 sub-buckets, giving a relative resolution of ~12.5%
    with a fixed table of {!bucket_count} cells covering the whole
    63-bit range.  Every cell is an [Atomic.t], so any number of domains
    may {!observe} concurrently without locks; because atomic adds
    commute, the final cell counts (and {!sum}/{!count}) depend only on
    the multiset of observed values, never on domain scheduling — a
    histogram fed deterministic values is itself deterministic. *)

type t

val bucket_count : int
(** Number of cells in the fixed bucket table. *)

val create : unit -> t

val observe : t -> int -> unit
(** Record one value (negative values clamp to 0).  Lock-free; safe
    from any domain. *)

val count : t -> int
(** Number of observations so far. *)

val sum : t -> int
(** Sum of all observed values. *)

val bucket_of : int -> int
(** Index of the cell a value lands in (exposed for tests). *)

val upper_of : int -> int
(** Inclusive upper bound of cell [i] — the [le] label in exposition.
    [upper_of (bucket_of v) >= v] and the bound is within ~12.5% of
    [v] for large values. *)

val nonzero : t -> (int * int) list
(** [(upper_bound, count)] for every non-empty cell, ascending. *)

val quantile : t -> float -> float
(** Interpolated q-th quantile estimate (q in [0,1], clamped).  The
    rank walk finds the cell holding the q-th observation and
    interpolates linearly inside it, so the estimate is {e exact} for
    values below 16 (one cell per value) and otherwise off by at most
    one sub-bucket width — a relative error bound of [2^-3] = 12.5%
    (and at most half that in expectation under any within-cell
    distribution).  Returns [0.] on an empty histogram. *)

val quantile_of_buckets : (int * int) list -> count:int -> float -> float
(** The same estimator over a snapshot's [(upper_bound, count)] list
    (ascending, as produced by {!nonzero}) — lets exposition code
    compute p50/p95 from serialized buckets.  Same error bound. *)
