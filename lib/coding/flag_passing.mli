(** The flag-passing phase (Algorithm 3): convergecast of continue/idle
    flags up a BFS spanning tree, then broadcast of the verdict back
    down, over the noisy network.

    One bit per tree link per direction; levels are scheduled so a node
    hears all its children before speaking (the paper's sleep schedule).
    Noise semantics: a deleted or missing flag reads as {e stop} — the
    conservative direction (idling costs an iteration; wrongly continuing
    costs communication) — while an inserted or flipped bit can of course
    forge either verdict, which is exactly the attack surface the
    analysis charges to the adversary.

    The phase has one driver, {!run_exec}, which issues its rounds
    through a live execution engine.  The traffic pattern is fixed by
    the tree, so callers on the hot path {!compile} the schedule
    (per-level sender sets and directed link indices) once per execution
    — each round then costs O(nodes at the speaking level), not O(2m).
    {!run} compiles on the fly and runs a serial engine for one-shot
    use. *)

val rounds_needed : Topology.Graph.tree -> int
(** 2·(depth − 1): the a-priori fixed length of the phase. *)

type schedule
(** Precompiled per-level sender sets and directed-link indices. *)

val compile : Topology.Graph.t -> tree:Topology.Graph.tree -> schedule

type probe = { on_missing : shard:int -> node:int -> unit }
(** Observability hook: [on_missing ~shard ~node] fires once per flag
    that a listener expected from [node] but read as silence — the
    conservative-default path where a deletion (or a dead sender) forces
    a stop verdict.  [shard] is the shard whose read observed the
    silence ([0] on a one-shard engine), so sharded callbacks can emit
    into their own trace ring. *)

val run_exec :
  ?alive:bool array ->
  ?probe:probe ->
  ?label:(unit -> unit) ->
  Live.Exec.t ->
  schedule ->
  statuses:bool array ->
  agg:bool array ->
  net_correct:bool array ->
  unit
(** [run_exec ex sched ~statuses ~agg ~net_correct] executes the phase
    through a live execution engine (lib/live); [statuses.(u)] is
    status_u (true = continue).  Rounds are issued to the engine, each
    node's aggregation and netCorrect cells are touched only by the
    shard owning the node, and the result lands in the
    caller-preallocated [net_correct] (fully overwritten; [agg] is
    scratch, also fully overwritten).  With no noise, every entry is
    [for_all statuses].  On the parallel engine the result is ready
    after {!Live.Exec.join}.

    [?alive] (fault injection): crashed parties ([alive.(v) = false])
    neither send nor update state during the phase; their silence reads
    as {e stop} at live parents — the conservative noise semantics — and
    their own netCorrect is pinned false.

    [label] runs once, committer-side, before the first round's network
    transform (callers pass the phase marking).  [probe] fires on worker
    shards, carrying the observing shard id — callbacks must touch only
    shard-local state (e.g. that shard's trace ring). *)

val run :
  Netsim.Network.t -> tree:Topology.Graph.tree -> statuses:bool array -> bool array
(** One-shot convenience: {!compile} the schedule, run {!run_exec} on a
    serial one-shard engine over the network, and return netCorrect per
    party. *)
