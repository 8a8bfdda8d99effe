(** Named metric registry: counters, gauges and histograms with a
    snapshot/merge API.

    A registry is the unit of collection — typically one per trial (the
    runner hands each trial its own) so snapshots can be merged in
    deterministic trial order, while within a trial any number of
    domains may hammer the same handles: counters and histogram cells
    are [Atomic.t], gauges are last-writer-wins atomics.

    The determinism contract mirrors lib/trace: metrics whose values
    are functions of the (keyed, deterministic) execution are
    registered {!Exact} and must come out byte-identical across job
    counts and shard counts; anything scheduling- or wall-clock-shaped
    (spin counts, steal counts, latencies) is {!Timed} and excluded
    from byte comparison — the same split `Obsv.Observatory` applies to
    bench metrics.

    The {!disabled} registry makes every probe a single load-and-branch:
    handles made from it carry [on = false] and their operations
    return immediately, so always-on instrumentation stays near-free
    when nobody is collecting (the `Trace.Sink.disabled` idiom). *)

type klass = Exact | Timed

type t
type counter
type gauge
type hist

val create : unit -> t

val disabled : t
(** The no-op registry: handles derived from it cost one branch. *)

val is_enabled : t -> bool

(** {1 Registration}

    Get-or-create by name: registering the same name twice returns the
    same underlying metric (the first klass wins).  Registration takes
    a lock; do it at setup time and keep the handle. *)

val counter : t -> ?klass:klass -> string -> counter
(** Default klass {!Exact}. *)

val gauge : t -> ?klass:klass -> string -> gauge
(** Default klass {!Timed} (gauges usually track rates/levels sampled
    at scheduling-dependent moments; pass [~klass:Exact] when the
    sampling points are deterministic). *)

val hist : t -> ?klass:klass -> string -> hist
(** Default klass {!Exact}. *)

(** {1 Probes} — lock-free, domain-safe, one branch when disabled. *)

val incr : counter -> unit
val add : counter -> int -> unit
val set : gauge -> float -> unit
val observe : hist -> int -> unit

val counter_value : counter -> int
val hist_count : hist -> int

(** {1 Snapshots} *)

type value =
  | Counter of int
  | Gauge of float
  | Histogram of { count : int; sum : int; buckets : (int * int) list }
      (** [buckets] are [(inclusive_upper_bound, count)] per non-empty
          cell, ascending. *)

type snapshot = (string * klass * value) list
(** Sorted by metric name. *)

val snapshot : t -> snapshot

val merge : snapshot list -> snapshot
(** Pointwise merge: counters and histogram cells add; gauges keep the
    last value in argument order (so merging per-trial snapshots in
    trial order is job-count-invariant).  Mixed-type name collisions
    keep the first value; a name's klass is the first seen. *)

val exact_only : snapshot -> snapshot
val timed_only : snapshot -> snapshot
