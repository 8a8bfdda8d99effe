(** The live execution engine: runs a phase driver's per-round
    write/read callbacks either inline (serial engine — with d = 0 this
    {e is} the historical lockstep loop, with d > 0 it adds keyed
    jitter) or in lockstep across one domain per shard (parallel
    engine: each round is one barrier whose last arriver commits).  See
    DESIGN.md §3h for the protocol and the d=0 ≡ lockstep argument. *)

type t

val create :
  net:Netsim.Network.t ->
  config:Config.t ->
  ?metrics:Metrics.Registry.t ->
  weights:int array ->
  unit ->
  t
(** Build an engine over [net] for [Array.length weights] parties,
    sharded by {!Shard.partition}.  The serial engine is chosen when
    [config.force_serial] is set (callers set it when they need a
    single-domain event order, e.g. an adversary spy), when the
    effective shard count is 1, or when [config.ragged_d > 0] (ragged
    synchrony is keyed jitter, exactly reproducible at any shard
    count); otherwise one worker domain per shard is spawned
    immediately.

    [metrics] (default {!Metrics.Registry.disabled}) attaches engine
    telemetry: [live.rounds] (Exact counter, booked once by {!shutdown},
    not per round), [live.ragged.lag] (Exact histogram of keyed serial
    lag draws) and [live.round_ns] (Timed per-shard round latency; a
    {!block} committed as one job books its latency divided by its
    rounds, once per round), plus the join barrier's wait-spin metrics.
    [live.drift] (Timed) is registered so snapshot name sets stay put,
    and never observed: lockstep rounds have no shard spread.  Metrics do
    {e not} force the serial engine — the registry is domain-safe, and
    neither does a trace sink: sharded capture (see {!set_trace})
    gives each domain its own ring.

    Every [t] must be released with {!shutdown}. *)

val shards : t -> int
(** Effective shard count. *)

val bounds : t -> shard:int -> int * int
(** Half-open party-id range owned by a shard. *)

val owner : t -> int -> int
(** Shard owning a party id. *)

val is_serial : t -> bool
(** True when callbacks run inline on the calling domain (single-domain
    event order — safe for observing probes and logging). *)

val set_trace : t -> Trace.Sharded.t -> unit
(** Install per-domain trace rings on the parallel engine (a no-op on
    the serial engine, whose callers emit inline into their own sink).
    Must be called before the first job is issued; the bundle's shard
    count must equal {!shards}.  Thereafter the engine stamps every
    ring with logical merge ticks — job index [j] owns ticks [4j]
    (leader), [4j+1] (shard writes / slices), [4j+2] (network commit,
    routed to the ring of the round barrier's last arriver via
    [Network.set_trace]) and
    [4j+3] (shard reads) — so {!Trace.Merge} can rebuild the serial
    event order deterministically.  Callbacks must emit only into the
    ring of the shard they were invoked for. *)

val round :
  t ->
  ?label:(unit -> unit) ->
  write:(shard:int -> Netsim.Network.Active.t -> unit) ->
  read:(shard:int -> Netsim.Network.Active.t -> unit) ->
  unit ->
  unit
(** Issue one global round.  [write ~shard buf] must submit the round's
    transmissions for exactly the parties of [shard] into [buf]
    (out-directions only — each directed link has a unique sending
    party, so shards never collide); [read ~shard master] consumes the
    delivered round.  [label], when given, runs exactly once before the
    network transforms the round (on the committing domain) — used for
    [Network.set_phase].  On the parallel engine this returns
    immediately (the round is enqueued); callbacks must touch only
    shard-local state.  Raises a worker's pending exception, if any. *)

val block :
  t ->
  ?label:(unit -> unit) ->
  width:int ->
  rounds:int ->
  write:(shard:int -> Netsim.Network.Block.t -> unit) ->
  read:(shard:int -> Netsim.Network.Block.t -> unit) ->
  unit ->
  unit
(** Issue [rounds] (≥ 1) global rounds whose sends are all known before
    the first, as words of [width] bits ({!Netsim.Network.Block}, with
    [⌈rounds / width⌉] fields).  [write ~shard out] must put the whole
    block's transmissions for exactly the parties of [shard] into [out]
    (its out-directions start silent); [read ~shard inw] consumes the
    delivered block on the shard's in-directions.  [label] runs once,
    before the first round is transformed.  Equivalent to [rounds]
    calls of {!round} (same network books, events and round counter);
    how it runs:
    - d = 0, serial engine: every shard writes, one
      [Network.commit_block], every shard reads;
    - parallel engine: one job with the usual four merge ticks (shard
      writes, one commit by the round barrier's last arriver, shard
      reads) — one barrier crossing instead of [rounds];
    - d > 0 (serial keyed jitter): lags are drawn per round, so the
      block runs as [rounds] ordinary rounds, round [r] carrying bit
      [r] of the words.
    The two word buffers belong to the engine and are reused by the
    next block: [read] must copy out what it keeps.  Raises
    [Invalid_argument] for [rounds < 1] or a width outside
    [1 .. Sys.int_size - 1], and a worker's pending exception, if any. *)

val slice : t -> (int -> unit) -> unit
(** Issue a no-network job: the callback runs once per shard (argument
    = shard id) and must touch only that shard's party range. *)

val join : t -> unit
(** Barrier: returns once every issued job has fully executed on every
    shard.  After [join] the leader may read and mutate any party
    state until the next [round]/[slice].  Also garbage-collects the
    job log.  Raises a worker's pending exception, if any. *)

val rounds_run : t -> int
(** Total rounds issued ({!block} counts its [rounds]). *)

val jitter_dropped : t -> int
(** Symbols the keyed jitter delayed past their intended round
    (deletions there); 0 on the parallel engine, which has no jitter. *)

val jitter_surfaced : t -> int
(** Delayed symbols delivered into a later round (each is also counted
    by {!jitter_dropped}); 0 on the parallel engine. *)

val shutdown : t -> unit
(** Terminate and join the worker domains, then book [live.rounds]
    (idempotent; never raises on the cleanup path).  The serial engine
    books {!rounds_run}; the parallel engine books the rounds whose
    commit began (counted before the label runs), so a run poisoned by
    a raise in a label or in the commit counts the same rounds as the
    serial engine however far ahead the leader had issued.  A raise in
    a shard's [write] stops that round before its commit begins, so it
    counts one round fewer than serial. *)
