(** Structured run outcomes for executions that may leave the paper's
    noise model.

    The paper proves resilience only {e inside} its budget (ε/m noise,
    live parties, intact state).  Once reality exceeds the model — a
    party crashes, a link stalls, noise overshoots the threshold, stored
    state rots — a simulator has exactly three honest things to say
    about a run, and this module is that vocabulary:

    - [Completed r]: the run finished under nominal conditions;
    - [Degraded (r, d)]: the run finished, but non-nominal events fired
      (the diagnosis [d] attributes every one of them);
    - [Aborted (reason, d)]: the run was cut short by an internal error
      (an exception escaped the run body); partial diagnosis attached.

    The contract consumers rely on: a fault-injected execution {e always}
    ends in one of these three — never an exception, never a hang. *)

type abort_reason = Internal_error of string  (** an exception escaped the run body *)

type diagnosis = {
  mutable crashed_iterations : int;
      (** Σ over parties of iterations spent crashed *)
  mutable rejoins : int;  (** crash-recovery events (rejoin happened) *)
  mutable transcript_rot : int;  (** stored-transcript bit-rot events applied *)
  mutable seed_rot : int;  (** (link × iteration)s hashed with rotted seed words *)
  mutable stalled_slots : int;  (** transmissions suppressed by link stalls *)
  mutable injected : int;  (** noise-overload corruptions beyond the budget *)
  mutable iterations_run : int;
  mutable iterations_planned : int;
  mutable wall_s : float;  (** processor time consumed (informational) *)
  mutable notes : string list;
      (** human-readable events, newest first; an aborted run's newest
          note names the iteration and phase it died in *)
}

type 'a t =
  | Completed of 'a
  | Degraded of 'a * diagnosis
  | Aborted of abort_reason * diagnosis

val fresh_diagnosis : unit -> diagnosis
(** All-zero diagnosis, to be mutated by the run. *)

val clean : diagnosis -> bool
(** No fault fired and no note was recorded ([wall_s] and the iteration
    counters are informational, not fault evidence). *)

val note : diagnosis -> string -> unit
(** Record a human-readable event. *)

val result : 'a t -> 'a option
(** The run's result, if one was produced ([Completed]/[Degraded]). *)

val diagnosis : 'a t -> diagnosis option
(** The diagnosis, if the run was non-nominal ([Degraded]/[Aborted]). *)

val label : 'a t -> string
(** ["completed"], ["degraded"] or ["aborted"] — stable identifiers for
    tables and JSON. *)

val abort_to_string : abort_reason -> string

val pp_diagnosis : Format.formatter -> diagnosis -> unit
(** One-line summary of the non-zero counters. *)
