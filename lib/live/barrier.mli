(** A sense-reversing barrier over Atomics: the per-round barrier of
    the live backend (its last arriver commits the round) and its join.
    No mutex on the hot path; waiters spin with [Domain.cpu_relax] then
    back off to microsleeps. *)

type t

val create : int -> t
(** [create parties] makes a barrier for [parties] participants.
    Raises [Invalid_argument] if [parties < 1]. *)

val set_yield : t -> bool -> unit
(** [set_yield t true] switches waiters to the oversubscribed wait
    strategy: a token [cpu_relax] probe, then micro-sleeps capped low,
    instead of long spin bursts.  Use when the participating domains
    outnumber the hardware threads available to them — spinning there
    only delays the peer that must make progress.  Default [false]. *)

val set_metrics : t -> Metrics.Registry.t -> unit
(** Attach a metrics registry: every subsequent {!await} records its
    wait-spin count into the [live.barrier.spins] histogram and its
    backoff sleeps into [live.barrier.sleeps] (both Timed — scheduling
    artifacts, excluded from byte comparison).  Costs one branch per
    await when the registry is {!Metrics.Registry.disabled}. *)

val await : ?giveup:(unit -> bool) -> ?last:(unit -> unit) -> t -> bool
(** Arrive and wait until all [parties] participants have arrived.
    Returns [true] on release ([true] also for the releasing last
    arriver).  [last], when given, runs on the last arriver before it
    releases the others: everything every participant did before
    arriving is visible to it, and everything it does is visible to
    every participant after the release.  If [last] raises, the
    exception propagates to the last arriver and nobody is released
    (the others leave through [giveup]).  If [giveup] is given it is polled while waiting; when it
    fires the wait aborts and [await] returns [false] — used to drain
    the barrier when a peer domain has been poisoned by an exception.
    The barrier is reusable (sense-reversing). *)

val spin_until : ?giveup:(unit -> bool) -> ?yield:bool -> (unit -> bool) -> bool
(** [spin_until cond] busy-waits (bounded [cpu_relax] bursts, then a
    sleep ladder) until [cond ()] holds, returning [true]; or until
    [giveup ()] fires, returning [false].  [~yield:true] selects the
    oversubscribed strategy of {!set_yield}.  Shared by the job-log
    wait of {!Exec}. *)
