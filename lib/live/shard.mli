(** Contiguous, weighted assignment of parties to keyed-jitter units
    ({!Config.install}).  Shard [k] owns the half-open id range
    [range t k]; ranges are in id order, non-empty, and balanced by
    [1 + weight] prefix weight so a hub does not share its unit with
    most of the graph. *)

type t

val partition : weights:int array -> shards:int -> t
(** [partition ~weights ~shards] cuts [Array.length weights] parties
    into [min shards n] non-empty contiguous ranges of near-equal
    [1 + weight] prefix sums.  Raises [Invalid_argument] when there
    are no parties. *)

val shards : t -> int
(** Effective shard count (≤ requested, ≤ parties). *)

val range : t -> int -> int * int
(** [range t k] is the half-open party-id interval [(lo, hi)] owned by
    shard [k]. *)

val owner : t -> int -> int
(** [owner t p] is the shard owning party [p]. *)

val pp : Format.formatter -> t -> unit
