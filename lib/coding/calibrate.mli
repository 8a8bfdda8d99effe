(** Calibration utilities: measuring an instance's actual noise
    tolerance.

    The paper's guarantees hold "for a sufficiently small constant ε"
    that it never pins down; anyone deploying a scheme needs the actual
    number for their topology, workload and parameters.  These helpers
    estimate it by Monte-Carlo bisection (they power experiment E14 and
    are exposed so users can calibrate their own configurations). *)

type point = {
  rate : float;  (** per-slot iid corruption probability *)
  successes : int;
  trials : int;
  mean_fraction : float;  (** measured corrupted fraction of coded traffic *)
}

val sweep :
  ?trials:int ->
  rng_seed:int ->
  rates:float list ->
  Params.t ->
  Protocol.Pi.t ->
  point list
(** Success statistics for each iid noise rate (additive oblivious
    adversary; [trials] defaults to 8). *)

val threshold :
  ?trials:int ->
  ?steps:int ->
  ?hi:float ->
  rng_seed:int ->
  Params.t ->
  Protocol.Pi.t ->
  float
(** The largest iid slot rate at which all [trials] (default 5) runs
    succeed, located by [steps] (default 7) bisection steps below [hi]
    (default 0.05).  Returns 0 if even the noiseless run fails.  This
    is {!threshold_r} with [~retries:0] and no watchdog or cap, reduced
    to its threshold; raises [Failure] if a run aborted (with no
    watchdog, only an internal error aborts a run). *)

type verdict = {
  threshold : float;  (** the located rate — see {!threshold} *)
  scheme_runs : int;  (** total scheme executions consumed *)
  retried : int;  (** aborted runs that were retried *)
  aborted : int;  (** cells scored as failures after exhausting retries *)
  exhausted : bool;
      (** [max_runs] was hit; [threshold] reflects the bisection state
          reached so far (a conservative lower estimate) *)
}

val threshold_r :
  ?trials:int ->
  ?steps:int ->
  ?hi:float ->
  ?retries:int ->
  ?wall_s:float ->
  ?max_runs:int ->
  rng_seed:int ->
  Params.t ->
  Protocol.Pi.t ->
  verdict
(** Robust {!threshold}: every scheme run carries a wall watchdog of
    [wall_s] seconds (no watchdog when omitted); a run that aborts is
    retried up to [retries] (default 2) more times with deterministically
    re-keyed streams and a doubled wall budget per attempt, then scored
    as a failure.  [max_runs] caps the total number of scheme executions;
    on exhaustion the bisection stops cleanly and the verdict says so.
    With nothing flaky and no caps binding, [threshold] and
    [threshold_r] agree exactly: both run the same bisection, and a
    cell's attempt 0 uses the same streams. *)
