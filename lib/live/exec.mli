(** The live execution engine: runs a phase driver's per-round
    write/read callbacks inline on the calling domain, each once per
    round over all parties.  With d = 0 this {e is} the historical
    lockstep loop; with d > 0 it adds keyed jitter, drawn per (round,
    jitter unit).  See DESIGN.md §3h for the d=0 ≡ lockstep argument and
    for why there is no parallel engine. *)

type t

val create :
  net:Netsim.Network.t ->
  config:Config.t ->
  weights:int array ->
  unit ->
  t
(** Build an engine over [net] for [Array.length weights] parties.
    Under keyed jitter ([config.ragged_d > 0]) the parties fall into
    [config.shards] jitter units ({!Shard.partition} by [weights]), each
    of which lags its whole round on its own draw; the units stay inside
    the engine, and the callbacks never see them.

    The engine keeps no telemetry of its own: the jitter it draws is
    booked through the network ({!Netsim.Network.note_stalled},
    {!Netsim.Network.note_injected}) and its round count is
    {!rounds_run}. *)

val round :
  t ->
  ?label:(unit -> unit) ->
  write:(shard:int -> Netsim.Network.Active.t -> unit) ->
  read:(shard:int -> Netsim.Network.Active.t -> unit) ->
  unit ->
  unit
(** Run one global round.  [write buf] submits every party's
    transmissions of the round into [buf] (out-directions, by the
    sending party); then [label] (when given) runs once — used for
    [Network.set_phase] — then the network transforms the round, then
    [read master] consumes the delivered round.  Each callback runs
    exactly once.  The [~shard] label is always 0: it is kept only for
    perfbench's engine micro-benchmark until that benchmark is revised
    (ROADMAP item 5).

    At d = 0 [buf] is the master buffer.  Under keyed jitter, in a
    round where some unit lags, [buf] is a scratch buffer: the engine
    then takes the units in order and each unit's out-directions in
    ascending order, stalling a lagging unit's symbols (they surface in
    a later round) and passing the others to the master buffer, where a
    fresh symbol overwrites a surfaced one. *)

val block :
  t ->
  ?label:(unit -> unit) ->
  width:int ->
  rounds:int ->
  write:(Netsim.Network.Block.t -> unit) ->
  read:(Netsim.Network.Block.t -> unit) ->
  unit ->
  unit
(** Run [rounds] (≥ 1) global rounds whose sends are all known before
    the first, as words of [width] bits ({!Netsim.Network.Block}, with
    [⌈rounds / width⌉] fields).  [write out] must put the whole block's
    transmissions of every party into [out] (every direction starts
    silent); [read inw] consumes the delivered block.  [label] runs
    once, before the first round is transformed.  Equivalent to
    [rounds] calls of {!round} (same network books, events and round
    counter); how it runs:
    - d = 0: [write], one [Network.commit_block], [read];
    - d > 0 (keyed jitter): lags are drawn per round, so the block runs
      as [rounds] ordinary rounds, round [r] carrying bit [r] of the
      words; [write] runs in the first and [read] in the last.
    The two word buffers belong to the engine and are reused by the
    next block: [read] must copy out what it keeps.  Raises
    [Invalid_argument] for [rounds < 1] or a width outside
    [1 .. Sys.int_size - 1]. *)

val slice : t -> (int -> unit) -> unit
(** [slice t f] is [f 0]: a no-network step.  Kept only for perfbench's
    engine micro-benchmark until that benchmark is revised (ROADMAP
    item 5); drivers run such steps directly. *)

val join : t -> unit
(** A no-op: every round, block and slice has finished when its call
    returns.  Kept only for perfbench's engine micro-benchmark until
    that benchmark is revised (ROADMAP item 5). *)

val rounds_run : t -> int
(** Total rounds issued ({!block} counts its [rounds]). *)

val jitter_dropped : t -> int
(** Symbols the keyed jitter delayed past their intended round
    (deletions there). *)

val jitter_surfaced : t -> int
(** Delayed symbols delivered into a later round (each is also counted
    by {!jitter_dropped}). *)

val shutdown : t -> unit
(** A no-op: an engine holds no resource to release.  Kept only for
    perfbench's engine micro-benchmark until that benchmark is revised
    (ROADMAP item 3). *)
