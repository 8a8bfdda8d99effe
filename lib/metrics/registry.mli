(** Metric snapshots: named counters and gauges, merged across trials.

    A snapshot is a value, not a collector: a run's metrics are a pure
    projection of what the run returned (`Coding.Report.metrics`), so
    nothing writes metric cells while a run executes, and per-trial
    snapshots merge in trial order exactly like the outcomes they were
    read from.

    The determinism contract mirrors lib/trace: metrics whose values
    are functions of the (keyed, deterministic) execution are
    {!Exact} and must come out byte-identical across job counts and
    shard counts; anything scheduling- or wall-clock-shaped is {!Timed}
    and excluded from byte comparison — the same split
    `Obsv.Observatory` applies to bench metrics. *)

type klass = Exact | Timed

type value = Counter of int | Gauge of float

type snapshot = (string * klass * value) list
(** Sorted by metric name. *)

val merge : snapshot list -> snapshot
(** Pointwise merge: counters add; gauges keep the last value in
    argument order (so merging per-trial snapshots in trial order is
    job-count-invariant).  Mixed-type name collisions keep the first
    value; a name's klass is the first seen. *)

val exact_only : snapshot -> snapshot
val timed_only : snapshot -> snapshot
