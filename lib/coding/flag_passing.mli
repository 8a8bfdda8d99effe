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

    The phase has one driver, {!run_exec}, which commits its rounds to
    the network.  The traffic pattern is fixed by the tree, so callers
    on the hot path {!compile} the schedule (per-level sender sets,
    directed link indices and a round buffer) once per execution — each
    round then costs O(nodes at the speaking level), not O(2m).  {!run}
    compiles on the fly for one-shot use. *)

val rounds_needed : Topology.Graph.tree -> int
(** 2·(depth − 1): the a-priori fixed length of the phase. *)

type schedule
(** Precompiled per-level sender sets and directed-link indices, and
    the phase's round buffer. *)

val compile : Topology.Graph.t -> tree:Topology.Graph.tree -> schedule

type probe = { on_missing : node:int -> unit }
(** Observability hook: [on_missing ~node] fires once per flag that a
    listener expected from [node] but read as silence — the
    conservative-default path where a deletion (or a dead sender) forces
    a stop verdict. *)

val run_exec :
  ?alive:bool array ->
  ?probe:probe ->
  Netsim.Network.t ->
  schedule ->
  statuses:bool array ->
  agg:bool array ->
  net_correct:bool array ->
  unit
(** [run_exec net sched ~statuses ~agg ~net_correct] executes the phase
    over [net]; [statuses.(u)] is status_u (true = continue).  Each
    round is one {!Netsim.Network.commit} whose sends and reads run over
    the speaking level, and the result lands in
    the caller-preallocated [net_correct] (fully overwritten; [agg] is
    scratch, also fully overwritten).  With no noise, every entry is
    [for_all statuses].

    [?alive] (fault injection): crashed parties ([alive.(v) = false])
    neither send nor update state during the phase; their silence reads
    as {e stop} at live parents — the conservative noise semantics — and
    their own netCorrect is pinned false.

    The caller labels the phase ({!Netsim.Network.set_phase}) first. *)

val run :
  Netsim.Network.t -> tree:Topology.Graph.tree -> statuses:bool array -> bool array
(** One-shot convenience: {!compile} the schedule, run {!run_exec} over
    the network, and return netCorrect per party. *)
