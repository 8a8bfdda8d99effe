(** Pretty-printers for simulation results — the single place that knows
    how to render a {!Scheme.result} for humans (CLI, examples,
    notebooks).  All printers are [Fmt]-style so they compose. *)

val pp_summary : Format.formatter -> Scheme.result -> unit
(** One line: success, CC, blowup, corruptions, iterations. *)

val pp_trace : Format.formatter -> Scheme.iter_stat list -> unit
(** The per-iteration table (G*, H*, B*, links in MP, Σ G progress bar). *)

val pp_params : Format.formatter -> Params.t -> unit

val verdict : Scheme.result -> string
(** "OK" / "FAILED (k parties wrong)". *)

val metrics : k:int -> m:int -> Scheme.result Faults.Outcome.t -> Metrics.Registry.snapshot
(** A run's metrics, projected from what it returned; every series is
    {!Metrics.Registry.Exact}, so equal outcomes give byte-identical
    snapshots at any job or shard count.  [k] and [m] are the run's K
    and edge count, for Φ.

    - Always: the [scheme.outcome.completed|degraded|aborted] tallies
      (one of them 1), [scheme.iterations], and the jitter and fault
      books [net.stalled] and [net.injected] (0 on [Completed]).
    - A finished run ([Completed]/[Degraded]) adds [net.cc],
      [net.corruptions], the run-end [net.noise_rate],
      [live.rounds] (the network's round count),
      [scheme.mp_truncations] and [scheme.rewinds].
    - A finished run with a per-iteration trace ([Config.trace]) adds
      Φ: [scheme.phi_stalls] ({!Potential.stalls}) and the last
      [scheme.phi].
    - An aborted run has only its diagnosis to project. *)
