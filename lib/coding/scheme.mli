(** The noise-resilient simulation (Algorithm 1 and its variants A/B/C).

    Given a noiseless protocol Π with a fixed speaking order and a noisy
    network, the scheme runs an a-priori fixed number of iterations, each
    consisting of four fixed-length phases (§3.1):

    + {e consistency check} — one interleaved meeting-points step per
      link ({!Meeting_points});
    + {e flag passing} — continue/idle convergecast + broadcast over a
      BFS spanning tree ({!Flag_passing});
    + {e simulation} — a ⊥-announcement round followed by one 5K-bit
      chunk of Π, simulated live over the noisy network by parties whose
      [netCorrect] flag is up;
    + {e rewind} — n rounds in which parties whose per-link transcript
      lengths disagree issue single-chunk rewind requests, letting a
      truncation wave cross the network.

    Randomness: a CRS ({!Params.Crs}) or per-link exchanged δ-biased
    seeds ({!Params.Exchange}, Algorithm 5) seed the inner-product
    hashes of the consistency checks. *)

type iter_stat = {
  iteration : int;
  g_star : int;  (** min over links of the common-prefix length (chunks) *)
  h_star : int;  (** max transcript length anywhere *)
  b_star : int;  (** H* − G*: the global backlog *)
  sum_g : int;  (** Σ over links of G_{u,v} — the potential's main term *)
  sum_b : int;  (** Σ over links of B_{u,v} = max |T| − G_{u,v} *)
  links_in_mp : int;  (** links whose meeting-points process is active *)
  mp_k_total : int;  (** Σ over link endpoints of the meeting-points counter k *)
  cc : int;  (** cumulative transmissions *)
  corruptions : int;
}

type result = {
  success : bool;  (** all parties output Π's noiseless outputs *)
  outputs : int array;
  reference : int array;
  cc : int;  (** communication of the coded execution *)
  cc_pi : int;  (** CC(Π): communication of the noiseless protocol *)
  rate_blowup : float;  (** cc / cc_pi *)
  rounds : int;
  corruptions : int;
  noise_fraction : float;  (** corruptions / cc *)
  iterations_run : int;
  chunks_total : int;  (** |Π| in chunks *)
  exchange_failures : int;  (** links whose seed exchange was corrupted *)
  chunks_rewound : int;  (** total rework: chunks simulated then truncated, summed over link endpoints *)
  mp_truncations : int;  (** meeting-points truncations, over link endpoints *)
  rewinds : int;
      (** chunks rewound by the rewind phase (self-initiated or honored
          requests) — a part of [chunks_rewound], which also counts
          meeting-points truncations and rejoin cuts *)
  trace : iter_stat list;  (** per-iteration statistics, oldest first (empty unless requested) *)
}

(** {2 Adversary spy interface}

    The non-oblivious adversary of §6 sees everything: the parties'
    inputs, their transcripts, and the random seeds.  A [spy] hands an
    adaptive adversary read access to that state; {!Attacks} builds the
    paper's seed-aware attacks on top of it.  (Oblivious adversaries
    must not use it — that is the modelling line between Theorem 1.1
    and Theorem 1.2.) *)

type edge_view = {
  tr_lo : Transcript.t;  (** lower endpoint's live transcript — read-only by convention *)
  tr_hi : Transcript.t;
  seeds : Seeds.t;  (** the (shared) seed bookkeeping of the link's lower endpoint *)
  in_sync : bool;  (** both sides idle in MP terms and transcripts identical *)
}

type spy = {
  spy_chunking : Protocol.Chunking.t;
  current_iteration : unit -> int;
  edge_view : int -> edge_view;
}

(** {2 Execution configuration}

    Everything optional about an execution lives in one record, so the
    entry point does not grow a new optional argument per feature. *)

type backend =
  | Lockstep
      (** the reference backend: the live engine's default, d = 0 —
          the historical round loop *)
  | Live of Live.Config.t
      (** the live engine (lib/live): with [ragged_d] = 0 it is the
          {!Lockstep} round loop at any shard count, each round one
          write, one commit and one read (the differential suite checks
          outcome and timing-free trace export); with [ragged_d] > 0
          each (round, jitter unit) may lag by keyed jitter, booked as
          insertions/deletions through the network's fault accounting,
          and [shards] sets the number of units.  Every callback runs on
          the caller's domain; parallelism lives across trials
          ([Runner.Pool]). *)

module Config : sig
  type t = {
    trace : bool;  (** collect per-iteration {!iter_stat}s *)
    sink : Trace.Sink.t;
        (** structured-trace sink.  {!Trace.Sink.disabled} (the default)
            keeps every probe at one branch; an enabled sink records
            per-iteration phase spans, meeting-points transition /
            truncation / hash-collision counters, flag votes and missing
            flags, idle parties, rewind-wave size and depth, fault
            events, network corruption events, and per-iteration Φ /
            G* / B* gauges (with [phi.stall] marking iterations where Φ
            rose by less than K).  Independent of [trace]: the sink
            observes live, [trace] retains {!iter_stat}s in the result.
            A run's metrics are not collected in-run: they are a
            projection of its outcome ([Report.metrics]), whose Φ
            series need [trace]. *)
    inputs : int array option;
        (** party inputs; [None] draws a deterministic pseudorandom
            assignment from the run's [rng] *)
    spy_hook : (spy -> unit) option;
        (** hand a non-oblivious adversary its read access (§6) *)
    faults : Faults.Plan.t;
        (** deterministic fault schedule applied to the execution
            (crashes, link stalls, noise overload, state rot);
            {!Faults.Plan.empty} — the default — runs nominally *)
    max_wall_s : float option;
        (** watchdog: abort ({!Faults.Outcome.Wall_budget}) once the run
            has consumed this much processor time.  Wall aborts are
            timing-dependent — leave [None] (the default) wherever
            byte-identical reproducibility matters. *)
    max_iterations : int option;
        (** watchdog: cap the iteration count below the a-priori planned
            number; hitting the cap degrades the run (diagnosis note),
            a non-positive cap aborts it
            ({!Faults.Outcome.Iteration_budget}) *)
    backend : backend;
        (** execution backend; {!Lockstep} (the default) is the serial
            reference, [Live _] sets the ragged slack and jitter units *)
  }

  val default : t
  (** No trace, disabled sink, pseudorandom inputs, no spy, no faults,
      no watchdogs, lockstep backend. *)

  val make :
    ?trace:bool ->
    ?sink:Trace.Sink.t ->
    ?inputs:int array ->
    ?spy_hook:(spy -> unit) ->
    ?faults:Faults.Plan.t ->
    ?max_wall_s:float ->
    ?max_iterations:int ->
    ?backend:backend ->
    unit ->
    t
end

val run_outcome :
  ?config:Config.t ->
  rng:Util.Rng.t ->
  Params.t ->
  Protocol.Pi.t ->
  Netsim.Adversary.t ->
  result Faults.Outcome.t
(** Simulate Π over the given noisy network, under the configured fault
    schedule, and report what kind of execution it was:

    - [Completed r] — nominal conditions end to end;
    - [Degraded (r, d)] — the run finished but fault events fired (or an
      iteration cap bound); [d] attributes every one of them;
    - [Aborted (reason, d)] — a watchdog fired or an exception escaped
      the execution.

    The contract: once configuration validation has passed (invalid
    inputs still raise [Invalid_argument]), this function never raises —
    every fault combination lands in one of the three constructors.
    Same [config], [rng] state, params, Π and adversary ⇒ identical
    outcome (wall-clock watchdog excepted).

    [rng] drives seed sampling (and default input assignment).  The
    adversary sees everything the model grants it and nothing more (in
    particular, oblivious patterns are fixed before any randomness is
    drawn from the network). *)

val run :
  ?config:Config.t ->
  rng:Util.Rng.t ->
  Params.t ->
  Protocol.Pi.t ->
  Netsim.Adversary.t ->
  result
(** {!run_outcome} for the nominal world: returns the result of a
    [Completed] or [Degraded] execution and raises [Failure] on
    [Aborted] (which cannot happen without watchdogs). *)

val planned_rounds : Params.t -> Protocol.Pi.t -> int
(** The a-priori fixed round count of the full (non-early-stopped)
    execution — what an oblivious adversary's noise pattern ranges
    over. *)

val planned_iterations : Params.t -> Protocol.Pi.t -> int
(** The a-priori fixed iteration count of the execution — the base for
    fault-plan iteration coordinates and [max_iterations] caps. *)
