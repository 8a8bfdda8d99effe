(** A deterministic multicore trial pool on stdlib [Domain]/[Atomic].

    Worker domains pull trial indices from a shared atomic counter and
    run the trial body.  The design contract is {e determinism}: the
    trial body must depend only on its trial index (derive per-trial
    randomness as [Rng.of_key (key ^ ":" ^ string_of_int trial)] — see
    {!trial_rng}), and every reduction over outcomes happens in trial
    order on the calling domain.  Merged results are then bit-identical
    for any job count and any scheduling order.

    Exceptions raised by a trial are captured as {!Raised} outcomes —
    a failing trial becomes a recorded failure, never a torn pool.

    The pool keeps no telemetry: trial and error counts are
    plain counts over the returned outcomes, and per-trial metrics are
    the caller's projection of each trial's value, merged in trial
    order like any other reduction. *)

type error = { failed_trial : int; message : string }

type 'a outcome =
  | Value of 'a
  | Raised of error  (** the trial raised; [message] is the exception *)

val default_jobs : unit -> int
(** The [MIC_JOBS] environment variable when set to a positive integer
    (clamped to 64), otherwise [Domain.recommended_domain_count ()]. *)

val trial_rng : key:string -> int -> Util.Rng.t
(** [trial_rng ~key t] is [Rng.of_key (key ^ ":" ^ string_of_int t)] —
    the canonical per-trial stream derivation.  Distinct keys and
    distinct trial indices give independent streams. *)

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
