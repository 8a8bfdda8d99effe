(** Attack fitness, projected from a run's outcome.

    The search engine scores a candidate by how much verified damage it
    does per unit of budget.  The signals are read from what the run
    returned, the way {!Coding.Report.metrics} projects them: the run
    executes with [~trace:true] (no sink), and Φ comes from the result's
    per-iteration trace through {!Coding.Potential}.  The fitness is

    - the terminal outcome class (Completed/Degraded/Aborted × protocol
      success) — a failed simulation dominates everything else;
    - the Φ stall count ({!Coding.Potential.stalls}, the sink's
      [phi.stall] total on a traced run): iterations where the potential
      Φ rose by less than K (Lemma 4.2's amortized bound is the
      defender's contract; every stall is a round of stolen progress);
    - the Φ-rise deficit: Σ max(0, K − ΔΦ) over the per-iteration
      increments, in units of K — how far below the amortized line the
      attack held the run;
    - wasted communication per corruption spent: chunks simulated then
      truncated (rework) per adversary corruption — the paper's
      wasted-communication currency.

    An aborted run returns no result, so its Φ signals read 0. *)

type t = {
  outcome_class : string;
  failed : bool;  (** the simulation did not reproduce Π's outputs *)
  phi_stalls : int;  (** Φ increments below K *)
  phi_deficit : float;  (** Σ max(0, K − ΔΦ) / K over the Φ increments *)
  waste : float;  (** chunks_rewound / max(1, corruptions) *)
  noise_fraction : float;
  corruptions : int;
  cc : int;
  hunter_hits : int;
  hunter_attempts : int;
}

val outcome_class : Coding.Scheme.result Faults.Outcome.t -> string
(** ["completed:ok"], ["completed:fail"], ["degraded:ok"],
    ["degraded:fail"] or ["aborted"] — the stable class label pinned by
    regression scenarios. *)

val extract :
  k:int ->
  m:int ->
  stats:Coding.Attacks.stats ->
  outcome:Coding.Scheme.result Faults.Outcome.t ->
  t
(** [k] is the scheme's chunk parameter (the expected per-iteration Φ
    rise) and [m] the graph's edge count.  Φ is read from the result's
    trace, so run with [~trace:true]; an untraced run reads no stalls
    and no deficit. *)

val score : t -> float
(** Scalarization for ranking: failure dominates (+1000), then stalls
    (×2), the Φ deficit, capped waste, and a small efficiency bonus for
    doing it with less noise.  A pure function of {!t}. *)
