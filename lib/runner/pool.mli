(** A deterministic multicore trial pool on stdlib [Domain]/[Atomic].

    Worker domains pull trial indices from a shared atomic counter and
    run the trial body.  The design contract is {e determinism}: the
    trial body must depend only on its trial index (derive per-trial
    randomness as [Rng.of_key (key ^ ":" ^ string_of_int trial)] — see
    {!trial_rng}), and every reduction over outcomes happens in trial
    order on the calling domain.  Merged results are then bit-identical
    for any job count and any scheduling order.

    Exceptions raised by a trial are captured as {!Raised} outcomes —
    a failing trial becomes a recorded failure, never a torn pool.  The
    retry entry points ({!run_retry}, {!fold_retry}) add a bounded,
    deterministic retry policy and a per-trial timeout on top.

    The pool keeps no telemetry: trial, error and timeout counts are
    plain counts over the returned outcomes, and per-trial metrics are
    the caller's projection of each trial's value, merged in trial
    order like any other reduction. *)

type error = { failed_trial : int; message : string }

type 'a outcome =
  | Value of 'a
  | Raised of error
      (** the trial's last attempt raised; [message] is the exception *)
  | Timed_out of { trial : int; elapsed_s : float }
      (** the trial's attempt exceeded the configured [timeout_s];
          [elapsed_s] is what it actually took.  Timing-dependent by
          nature: a result containing [Timed_out] is outside the
          byte-identical-across-job-counts contract. *)

val default_jobs : unit -> int
(** The [MIC_JOBS] environment variable when set to a positive integer
    (clamped to 64), otherwise [Domain.recommended_domain_count ()]. *)

val trial_rng : key:string -> int -> Util.Rng.t
(** [trial_rng ~key t] is [Rng.of_key (key ^ ":" ^ string_of_int t)] —
    the canonical per-trial stream derivation.  Distinct keys and
    distinct trial indices give independent streams. *)

val retry_rng : key:string -> trial:int -> attempt:int -> Util.Rng.t
(** The canonical stream for retry attempt [attempt] of a trial:
    attempt 0 is exactly [trial_rng ~key trial] (a retrying pool is a
    drop-in for a plain one when nothing fails), attempt [a > 0] is
    [Rng.of_key (key ^ ":" ^ trial ^ ":retry" ^ a)].  The stream
    depends only on (key, trial, attempt) — never on which domain ran
    the trial or what other trials did — preserving jobs-invariance
    under retries. *)

val run : ?jobs:int -> trials:int -> (int -> 'a) -> 'a outcome array
(** [run ~jobs ~trials f] evaluates [f t] for [t = 0 .. trials-1] on
    [min jobs trials] domains ([jobs = 1] runs sequentially on the
    calling domain, spawning nothing) and returns the outcomes indexed
    by trial.  [jobs] defaults to {!default_jobs}. *)

val fold :
  ?jobs:int ->
  ?batch:int ->
  trials:int ->
  init:'acc ->
  merge:('acc -> int -> 'a outcome -> 'acc) ->
  (int -> 'a) ->
  'acc
(** [fold ~trials ~init ~merge f] — streaming variant: trials run in batches of [batch] (default
    [max 64 (16 * jobs)]) through a reusable slot buffer, and [merge]
    is applied on the calling domain in ascending trial order — memory
    is O(batch), not O(trials).  [merge]'s call sequence is identical
    for every job count, so any accumulator it feeds is filled
    deterministically. *)

val run_retry :
  ?jobs:int ->
  ?timeout_s:float ->
  ?attempts:int ->
  trials:int ->
  (attempt:int -> int -> 'a) ->
  'a outcome array
(** {!run} with a retry/timeout policy.  The body receives the attempt
    number (0-based) and must derive its randomness with {!retry_rng} to
    stay deterministic.  A raising attempt is retried up to [attempts]
    times total (default 1 = no retry); the last failure is recorded as
    {!Raised}.  [timeout_s] marks a trial {!Timed_out} when its attempt
    took longer — cooperatively, after the attempt returns: the pool
    never hangs at the boundary, but it cannot preempt a wedged body.
    Raises [Invalid_argument] if [attempts < 1]. *)

val fold_retry :
  ?jobs:int ->
  ?batch:int ->
  ?timeout_s:float ->
  ?attempts:int ->
  trials:int ->
  init:'acc ->
  merge:('acc -> int -> 'a outcome -> 'acc) ->
  (attempt:int -> int -> 'a) ->
  'acc
(** {!fold} under the same retry/timeout policy as {!run_retry}. *)
