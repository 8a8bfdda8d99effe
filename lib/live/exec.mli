(** The live execution engine: runs a phase driver's per-round
    write/read callbacks inline on the calling domain, shard by shard.
    With d = 0 this {e is} the historical lockstep loop; with d > 0 it
    adds keyed jitter, drawn per (round, shard).  See DESIGN.md §3h for
    the d=0 ≡ lockstep argument and for why there is no parallel
    engine. *)

type t

val create :
  net:Netsim.Network.t ->
  config:Config.t ->
  ?metrics:Metrics.Registry.t ->
  weights:int array ->
  unit ->
  t
(** Build an engine over [net] for [Array.length weights] parties,
    sharded by {!Shard.partition}.  Shards order the callbacks and key
    the jitter; every callback runs on the caller's domain.

    [metrics] (default {!Metrics.Registry.disabled}) attaches engine
    telemetry: [live.rounds] (Exact counter, booked once by {!shutdown},
    not per round), [live.ragged.lag] (Exact histogram of keyed lag
    draws) and [live.round_ns] (Timed per-round latency; a {!block}
    committed whole books its latency divided by its rounds, once per
    round).

    Release every [t] with {!shutdown}. *)

val shards : t -> int
(** Effective shard count. *)

val bounds : t -> shard:int -> int * int
(** Half-open party-id range owned by a shard. *)

val owner : t -> int -> int
(** Shard owning a party id. *)

val round :
  t ->
  ?label:(unit -> unit) ->
  write:(shard:int -> Netsim.Network.Active.t -> unit) ->
  read:(shard:int -> Netsim.Network.Active.t -> unit) ->
  unit ->
  unit
(** Run one global round.  [write ~shard buf] must submit the round's
    transmissions for exactly the parties of [shard] into [buf]
    (out-directions only — each directed link has a unique sending
    party, so shards never collide); [read ~shard master] consumes the
    delivered round.  Every shard writes, in shard order, then [label]
    (when given) runs once — used for [Network.set_phase] — then the
    network transforms the round, then every shard reads.  A shard whose
    round lags under keyed jitter writes into scratch; its symbols
    surface in a later round. *)

val block :
  t ->
  ?label:(unit -> unit) ->
  width:int ->
  rounds:int ->
  write:(shard:int -> Netsim.Network.Block.t -> unit) ->
  read:(shard:int -> Netsim.Network.Block.t -> unit) ->
  unit ->
  unit
(** Run [rounds] (≥ 1) global rounds whose sends are all known before
    the first, as words of [width] bits ({!Netsim.Network.Block}, with
    [⌈rounds / width⌉] fields).  [write ~shard out] must put the whole
    block's transmissions for exactly the parties of [shard] into [out]
    (its out-directions start silent); [read ~shard inw] consumes the
    delivered block on the shard's in-directions.  [label] runs once,
    before the first round is transformed.  Equivalent to [rounds]
    calls of {!round} (same network books, events and round counter);
    how it runs:
    - d = 0: every shard writes, one [Network.commit_block], every shard
      reads;
    - d > 0 (keyed jitter): lags are drawn per round, so the block runs
      as [rounds] ordinary rounds, round [r] carrying bit [r] of the
      words.
    The two word buffers belong to the engine and are reused by the
    next block: [read] must copy out what it keeps.  Raises
    [Invalid_argument] for [rounds < 1] or a width outside
    [1 .. Sys.int_size - 1]. *)

val slice : t -> (int -> unit) -> unit
(** Run a no-network step: the callback runs once per shard (argument
    = shard id), in shard order, and must touch only that shard's
    party range. *)

val join : t -> unit
(** A no-op: every round, block and slice has finished when its call
    returns.  Kept so drivers written against an asynchronous engine
    still compile. *)

val rounds_run : t -> int
(** Total rounds issued ({!block} counts its [rounds]). *)

val jitter_dropped : t -> int
(** Symbols the keyed jitter delayed past their intended round
    (deletions there). *)

val jitter_surfaced : t -> int
(** Delayed symbols delivered into a later round (each is also counted
    by {!jitter_dropped}). *)

val shutdown : t -> unit
(** Book [live.rounds] with {!rounds_run} (idempotent; never raises).
    A round whose label or commit raised still counts. *)
