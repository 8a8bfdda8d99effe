(** Per-domain trace capture for sharded execution.

    A sharded sink is a bundle of independent {!Sink} rings: one per
    worker shard plus one for the leader/control domain.  Each domain
    writes only its own ring on the hot path — no cross-domain stores,
    no synchronization — and event ids are process-wide
    ({!Sink.declare}), so one id is valid on every ring.

    Ordering is reconstructed after the fact by {!Merge}: the execution
    engine stamps each ring's events with a logical {e tick}
    ({!Sink.set_tick}) that encodes the engine's deterministic job
    schedule, and merge-sorting by [(tick, shard, seq)] reproduces, at
    ragged depth 0, exactly the event order the serial engine would
    have emitted — byte-identical timing-free exports at any shard
    count.  When ragged, per-shard causality (seq order within a ring)
    is still preserved and every event remains positionally
    attributable to its shard. *)

type t

val create : shards:int -> ?capacity:int -> ?profile:bool -> unit -> t
(** One enabled ring per shard plus the leader ring, each retaining
    [capacity] (default 32768) events.  The rings start at 256 slots
    and grow as events arrive ({!Sink.create}'s [initial]): a traced
    parallel [Scheme.run] creates them, so it pays only for what it
    records.  Raises [Invalid_argument] if
    [shards < 1]. *)

val disabled : t
(** The no-op bundle: every ring is {!Sink.disabled}. *)

val is_enabled : t -> bool

val shards : t -> int

val ring : t -> int -> Sink.t
(** The ring owned by worker shard [w].  Only shard [w]'s domain may
    write it while the engine is running. *)

val leader : t -> Sink.t
(** The leader/control domain's ring (phase spans, leader-side
    counters, pre-engine setup events). *)

val dropped : t -> int
(** Total events lost to ring wrap-around across all rings.  Merged
    exports are byte-identical across shard counts only when this is 0
    (per-ring drop windows differ by sharding); counter totals remain
    drop-proof regardless. *)

val counter_totals : t -> (string * int) list
(** Drop-proof per-counter lifetime totals summed across every ring,
    nonzero entries only, sorted by name. *)
