(** Scheme-aware adversaries: the non-oblivious attacks of §6.1.

    The decisive attack against constant-length hashes is the {e hash
    collision hunter}.  A non-oblivious adversary knows the hash seeds
    in advance, so before corrupting a chunk it can search for a
    corruption pattern whose two resulting transcripts — the sender's
    honest one and the receiver's corrupted one — hash to the {e same}
    τ-bit value in the next consistency check.  Such a corruption is
    invisible to the meeting-points mechanism for at least one
    iteration, giving wasted communication at unit cost.  The search is
    over the chunk's virtual-padding transmissions on the target link
    (whose honest content, always 0, is predictable), and exploits the
    GF(2)-linearity of the inner-product hash: each single-bit change
    contributes a fixed τ-bit mask, so a hidden corruption is exactly a
    nonempty sub-collection of masks XOR-ing to zero.

    With τ = Θ(1) (Algorithm 1 outside its oblivious contract) such
    collections exist in almost every chunk; with τ = Θ(log m)
    (Algorithm B) they exist with probability 1/poly(m) — which is the
    quantitative content of Theorem 1.2's parameter choice, and what
    experiment E7 measures.

    Every attack here is built one way: as a {!candidate} passed to
    {!instantiate}.  The families' strategies read the round's sends as
    the network hands them over, (dir id, bit) pairs, and answer with
    (dir id, addend) requests under one budget of 1/[rate_denom] of the
    communication so far. *)

type stats = {
  mutable attempts : int;  (** chunks examined *)
  mutable hits : int;  (** hidden corruptions committed *)
  mutable corruptions_spent : int;
}
(** Live hunter statistics of one {!instance}.  {e Multicore contract}:
    the record is mutable, unsynchronized state of that instance — call
    {!instantiate} {e inside} the trial thunk when running on
    {!Runner.Pool}, never once outside it, and aggregate the per-trial
    values in trial order (e.g. through [Runner.Accum]). *)

(** {2 The uniform attack-candidate constructor}

    The adversary-synthesis engine ({!Advsearch}) explores attack
    parameter space; this is the space.  A {!candidate} is a plain
    serializable record naming an attack family (optionally composed
    with a partner family under one shared budget), a target edge set,
    an activity window in scheme iterations, a burst shape, the budget
    denominator and the hunter's search depth.  {!instantiate} turns it
    into a runnable adversary — deterministically: the same candidate
    always produces the same strategy, and all constructed state
    (including {!stats}) is fresh per call, so calling it inside a
    {!Runner.Pool} trial thunk is multicore-safe by construction. *)

type family =
  | Hunter  (** the §6.1 collision hunter, one instance per target edge *)
  | Mp_blind
      (** corrupt consistency-check traffic (hash messages) at every
          opportunity the budget allows, blinding the meeting-points
          mechanism rather than fooling it *)
  | Flag_forge
      (** flip continue↔stop bits on the spanning tree, trying to make
          the network idle when it should run and run when it should
          idle (the attack surface of Algorithm 3) *)
  | Rewind_spoof
      (** insert rewind requests into silent rewind-phase slots: every
          accepted spoof makes the victim truncate a correct chunk
          (Lines 33–38); insertion noise in its purest form *)
  | Burst
      (** budgeted burst: hit every admitted directed link each round of
          a [burst_start, burst_start + burst_len) round window *)

val all_families : family list
val family_to_string : family -> string
val family_of_string : string -> family option

type candidate = {
  family : family;
  partner : family option;
      (** composed pair: a second strategy sharing the same budget *)
  edges : int list;  (** target edge ids; [[]] = every edge *)
  window : (int * int) option;
      (** active scheme-iteration window [lo, hi); [None] = always.
          Strategies are stepped outside the window (the hunter's state
          machine needs the phase transitions) but their corruption
          requests are suppressed. *)
  burst_start : int;  (** burst shape (Burst family only): start round *)
  burst_len : int;  (** burst length in rounds *)
  rate_denom : int;  (** the shared budget is 1/[rate_denom] of traffic *)
  depth : int;  (** hunter search depth (1..8) *)
}

val default_candidate : candidate
(** [Mp_blind] on every edge, no partner/window/burst, budget 1/1000,
    depth 4 — a neutral base for functional record updates. *)

val candidate_to_string : candidate -> string
(** Compact deterministic label, e.g.
    ["hunter+rewind_spoof@e0,3 rd600 w2-9 d4"]. *)

type instance = {
  adversary : Netsim.Adversary.t;
      (** always [Adaptive]; pass to {!Scheme.run_outcome} *)
  spy_hook : (Scheme.spy -> unit) option;
      (** present iff a hunter is involved; pass to {!Scheme.Config.make} *)
  stats : stats;
      (** fresh per instance; hunter attempts and hits land here (zero
          for the other families) *)
}

val instantiate : graph:Topology.Graph.t -> candidate -> instance
(** Validate and build the candidate's adversary.  Raises
    [Invalid_argument] on out-of-range fields (edge ids beyond the
    graph, empty windows, non-positive budget denominators, depth
    outside 1..8). *)
