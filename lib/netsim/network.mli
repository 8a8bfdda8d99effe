(** The synchronous noisy network of §2.1.

    Execution proceeds in global rounds.  In a round, any subset of
    parties submits at most one bit per incident directed link; the
    adversary transforms each of the 2m directed-link slots (including
    silent ones, enabling insertions); the network delivers what survives.

    A round has one implementation, {!commit}, over the sparse {!Active}
    buffer; {!commit_block} runs a block of rounds whose sends are all
    known upfront (the meeting-points exchange) through the same
    per-round transform, or as a word copy when nothing can touch the
    symbols.  Parties declare a round with {!Active.begin_round} (O(1): an
    epoch bump, no clearing of the 2m-slot space), write bits on the
    links that actually carry a symbol, and hand the buffer to {!commit}.
    Per-round cost is O(active links) plus whatever the adversary model
    inherently requires: an oblivious pattern hands over the round's
    nonzero entries, whose production is its own cost (one draw per
    slot for iid, its own slots for a burst); fault hooks are queried
    on all 2m directions; a silent or adaptive adversary keeps the
    round fully sparse.  This is what lets the
    simulation scale to thousands of parties whose phase drivers leave
    most links idle most rounds.

    The independent dense reference round that differential tests
    compare {!commit} against lives in the netsim test suite, not here.

    The network keeps the two books the paper's accounting needs:
    - [cc]: the number of transmissions the parties actually sent — the
      communication complexity CC of the instance;
    - [corruptions]: the number of corrupted slots, so that the noise
      fraction of the instance is [corruptions / cc].
    Both are exposed together through {!stats}. *)

(** The sparse active-link buffer.  Symbols live in bit-packed 2-bit
    lanes (four per byte); validity is epoch-stamped, so starting a round
    never touches the 2m-slot space.  Costs: {!begin_round} O(1),
    {!send}/{!get}/{!is_silent}/{!count} O(1), {!iter} O(active) — plus
    one sort of the active set if writes arrived out of ascending dir
    order (phase drivers emit in order, so the sort is idle there).

    A buffer is bound to a buffer length, not a network; reuse one
    across as many rounds as you like ({!begin_round} invalidates all
    previous writes).  After {!commit} the same buffer holds the
    delivered round. *)
module Active : sig
  type t

  val create : Topology.Graph.t -> t
  (** A fresh buffer sized for the graph (2m lanes), in an empty round. *)

  val length : t -> int
  (** Number of lanes (2m). *)

  val begin_round : t -> unit
  (** Start a new round: every direction reverts to silence.  O(1). *)

  val send : t -> dir:int -> bool -> unit
  (** Submit a bit on a directed link (overwrites).  Raises
      [Invalid_argument] if [dir] is out of range. *)

  val get : t -> dir:int -> bool option
  (** The direction's symbol this round; [None] is silence.  O(1). *)

  val is_silent : t -> dir:int -> bool

  val count : t -> int
  (** Number of non-silent directions this round.  O(1). *)

  val iter : t -> (dir:int -> bool -> unit) -> unit
  (** Visit every non-silent direction in ascending dir order.
      O(active), independent of 2m. *)

  (**/**)

  val debug_set_epoch : t -> int -> unit
  (** Test hook: jump the internal epoch stamp near its wraparound point
      (2^30 - 1) to exercise the wrap path without running 2^30 rounds.
      Raises [Invalid_argument] out of range. *)

  (**/**)
end

(** A block of rounds whose sends are all known upfront, word-wise: per
    directed link, [fields] words of [width] bits, round [t] of the block
    in bit [t mod width] of word [t / width].  Each bit position either
    carries a symbol (0 or 1) or is silent.  A block serves both ends of
    {!commit_block}: the parties' sends going in, the delivered symbols
    coming out.  Costs: {!set}/{!word}/{!heard}/{!get}/{!send} O(1),
    {!silence} O(fields). *)
module Block : sig
  type t

  val create : Topology.Graph.t -> width:int -> fields:int -> t
  (** A silent block for the graph's 2m directions.  Raises
      [Invalid_argument] unless [1 <= width < Sys.int_size] and
      [fields >= 1]. *)

  val width : t -> int
  val fields : t -> int

  val silence : t -> dir:int -> unit
  (** Silence every round of one direction. *)

  val set : t -> dir:int -> field:int -> int -> unit
  (** [set b ~dir ~field w] speaks word [w] on the [width] rounds of
      field [field]: bit [i] of [w] in round [field * width + i].  Bits
      of [w] at or above [width] are ignored. *)

  val word : t -> dir:int -> field:int -> int
  (** The 1 bits of a field.  A silent round reads as 0, like a 0. *)

  val heard : t -> dir:int -> field:int -> int
  (** The rounds of a field that carry a symbol, as a bit mask. *)

  val get : t -> dir:int -> round:int -> bool option
  (** The direction's symbol in one round of the block; [None] is
      silence. *)

  val send : t -> dir:int -> round:int -> bool -> unit
  (** Put one symbol on one round of a direction (overwrites). *)
end

type stats = {
  rounds : int;  (** rounds elapsed *)
  cc : int;  (** transmissions sent — the instance's CC *)
  corruptions : int;  (** corrupted slots (adversary, budgeted) *)
  noise_fraction : float;  (** [corruptions / cc] (0 when nothing sent) *)
  stalled : int;
      (** transmissions suppressed by injected link stalls or delayed by
          keyed jitter *)
  injected : int;
      (** overload corruptions injected beyond the budget, and delayed
          symbols surfacing under keyed jitter *)
}

(** Environment faults beyond the adversary's accounted budget, supplied
    by the fault engine (lib/faults) through {!set_fault_hooks} and
    applied inside {!commit} {e after} the adversary:
    - [extra_addend ~round ~dir] returns a Z3 addend (0 = none) applied
      to the slot and booked under [stats.injected];
    - [stall ~round ~dir] forces the slot silent (booked under
      [stats.stalled]);
    - [budget_scale ~round] multiplies an adaptive adversary's running
      budget for the round (values ≤ 1 leave it unchanged).
    Fault events are accounted separately from [corruptions] /
    [noise_fraction], which keep meaning "budgeted model noise".  Hooks
    are queried for every direction, so installing them makes every
    round O(2m). *)
type fault_hooks = {
  stall : round:int -> dir:int -> bool;
  extra_addend : round:int -> dir:int -> int;
  budget_scale : round:int -> float;
}

type t

val create : Topology.Graph.t -> Adversary.t -> t
val graph : t -> Topology.Graph.t

val active : t -> Active.t
(** A fresh sparse buffer sized for this network. *)

val link_ends : t -> dir:int -> int * int
(** (src, dst) endpoints of a directed link id: the graph's
    {!Topology.Graph.dir_ends}. *)

val set_fault_hooks : t -> fault_hooks option -> unit
(** Install (or clear) the fault engine's hooks.  [None] — the default —
    keeps rounds on the zero-overhead path. *)

val set_trace : t -> Trace.Sink.t -> unit
(** Attach (or swap) the trace sink.  Rounds then emit one
    [net.corrupt] / [net.injected] / [net.stalled] count per affected
    slot, tagged with the round ([iter]) and directed link ([arg]) —
    adversary corruptions and fault-engine events stay distinguishable
    per link per round.  The default is {!Trace.Sink.disabled}, under
    which every probe is a single branch on an already-corrupted slot
    and free otherwise. *)

val set_jitter : t -> d:int -> rate:float -> key:int64 -> units:int array -> unit
(** Install keyed jitter, ragged synchrony as channel noise (DESIGN.md
    §3h), once per network; every later {!commit} and {!commit_block}
    runs through it.  [units.(dir)] is [dir]'s jitter unit (callers
    give each dir its source party's unit).  In the jitter's round [q],
    the number of rounds committed since this call, unit [w] lags with
    probability [rate] by a lag in [1..d], drawn from the SplitMix
    stream keyed by [key] at [(q, w)]; the draws are pure, so reruns are
    identical.  A lagging unit's symbols are deleted from round [q]
    and delivered into round [q + lag].  Until it is installed the
    network holds no jitter state.  Raises [Invalid_argument] if jitter
    is already installed, [d < 1], [rate] is outside [\[0, 1\]], or
    [units] does not give each of the 2m dirs a unit [>= 0]. *)

val set_phase : t -> iteration:int -> phase:Adversary.phase -> unit
(** Label the upcoming rounds for adaptive adversaries and traces.  The
    label leaks no private state: the schedule of phases is public by
    construction (each phase has an a-priori fixed number of rounds). *)

val commit : t -> Active.t -> unit
(** [commit t act] executes one synchronous round in place on the sparse
    buffer: on entry [act] holds the parties' transmissions (everything
    since its last [begin_round]); on return it holds what the network
    delivered.  Substituted bits are altered, deleted ones become
    silence, inserted ones appear on links that were silent.  Raises
    [Invalid_argument] on buffer length mismatch.  Cost: O(active) under
    a silent adversary with no fault hooks; O(active + |strategy list|)
    under an adaptive one; under an oblivious pattern, O(active + hits)
    plus the pattern's own cost for the round's row (one inlined draw per
    direction for iid); O(2m) when fault hooks must be consulted per
    direction.

    Under installed jitter ({!set_jitter}) the round is routed before
    the adversary sees it: the symbols due this round surface first,
    each booked under [stats.injected] with a [net.injected] event; then
    each lagging unit's symbols are stalled (units in order, a unit's
    dirs ascending), each booked under [stats.stalled] with a
    [net.stalled] event; a surfacing symbol lands only on a dir left
    silent, so a fresh symbol overwrites it.  [cc] counts the routed
    round.  Routing adds one draw per unit, plus O(dirs) for each
    lagging unit. *)

val commit_block : t -> rounds:int -> out:Block.t -> inw:Block.t -> unit
(** [commit_block t ~rounds ~out ~inw] executes the first [rounds]
    rounds of [out] — the parties' sends of [rounds] successive rounds,
    all known before the first — and leaves what the network delivered
    in [inw] (rounds past [rounds] are silent there).  It is exactly
    [rounds] successive {!commit}s of those sends: the adversary and
    the fault hooks are queried in the same (round, dir) order, an
    adaptive strategy gets the same per-round context (its [sends]
    built from [out]), and the books, the [net.*] trace events and the
    round counter advance exactly as theirs would.  Z3 arithmetic applies to
    each bit, so a corruption of a silent round is an insertion.  Cost:
    a copy of the words and a popcount under a silent adversary with
    no fault hooks; otherwise the per-round cost of {!commit} plus an
    O(2m) count of the round's sends.  Under installed jitter lags are
    drawn per round, so the block runs as [rounds] routed {!commit}s,
    round [r] carrying bit [r] of the words.  Raises
    [Invalid_argument] if either block does not match the network's
    2m, the two differ in shape, or [rounds] is negative or exceeds
    [width * fields]. *)

val touched : t -> rounds:int -> bool array -> unit
(** [touched t ~rounds buf] sets [buf.(dir)] to whether the next
    [rounds] rounds (the ones the next {!commit}s or {!commit_block}
    will run) may alter a symbol on [dir], and to [false] elsewhere.  It
    reads the sources the commit reads, without committing anything:
    - {!Adversary.Silent}: no dir;
    - an oblivious pattern, additive or fixing: the dirs of its rows
      for those rounds (a fixing entry counts even where it would force
      the honest symbol: that depends on the bit sent);
    - installed fault hooks: every dir with a nonzero [extra_addend] or
      a [stall] in one of those rounds;
    - {!Adversary.Adaptive}: every dir, since a strategy reads the sent
      bits;
    - installed jitter: every dir of a unit that lags in one of those
      rounds, and every dir with a stalled symbol due in them.
    A pattern or hook that raises, or a row entry out of range, marks
    every dir; the commit then raises where it always did.  Patterns
    and hooks are pure, so drawing them here changes no later commit;
    the rows drawn are kept, and the commits of those rounds read them
    instead of drawing them again.  Cost: the patterns' rows for
    [rounds] rounds, plus [2m] hook queries per round when hooks are
    installed, plus up to [rounds] lag draws per jitter unit.  Raises [Invalid_argument] unless [buf] has length 2m. *)

val stats : t -> stats
(** The network's books, in one read.  They are the network's only
    tallies: a run's [net.*] metrics are projected from them once the
    run has returned ([Coding.Report.metrics]), never probed per
    round. *)
