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
    (default 0.05).  Returns 0 if even the noiseless run fails.  Trial
    [t] uses the same streams at every rate.  Raises [Failure] if a run
    aborted (an internal error). *)
