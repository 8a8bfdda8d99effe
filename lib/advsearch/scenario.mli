(** Versioned, replayable attack scenarios.

    A scenario is everything needed to reproduce an adversarial run
    byte-for-byte: the coding algorithm, the topology, the workload
    length, the attack {!Coding.Attacks.candidate}, the base RNG key and
    the trial count.  Discovered attacks ({!Search}) serialize to this
    format; [bin/mic --attack FILE] and the regression suite replay
    them.

    Determinism contract: {!run_trial} is a pure function of
    (scenario, trial index) — trial randomness is
    [Runner.Pool.trial_rng ~key:scenario.key trial] and the adversary
    is instantiated fresh inside the trial — so {!replay} produces
    identical {!trial_replay} lists at any job count, and a parsed
    scenario replays identically to the in-memory record it was
    serialized from.  Replays run untraced; [mic run --attack FILE
    --postmortem] re-runs trial 0 into an enabled sink ({!run_trial}
    [~sink]) for the diagnosis. *)

type t = {
  version : int;  (** format version; currently {!version} *)
  name : string;  (** human label, e.g. ["adv:alg1:clique:5:best"] *)
  algorithm : string;  (** ["1"], ["a"], ["b"] or ["c"] *)
  topology : string;  (** topology spec, e.g. ["clique:5"], ["grid:3:3"] *)
  rounds : int;  (** workload length (the standard chatter workload) *)
  key : string;  (** base RNG key; trial [t] runs on [key ^ ":" ^ t] *)
  trials : int;
  expected : string option;
      (** pinned per-trial outcome classes (comma-joined, see
          {!Fitness.outcome_class}) for regression replay; [None] =
          unpinned *)
  candidate : Coding.Attacks.candidate;
}

val version : int

(** {2 Environment construction} *)

val graph_of_topology : string -> Topology.Graph.t
(** Parse a topology spec: [kind:n] for [clique]/[line]/[cycle]/[star]/
    [tree], [grid:rows:cols].  Raises [Invalid_argument] on unknown
    kinds or non-positive sizes. *)

val params_of_algorithm : string -> Topology.Graph.t -> Coding.Params.t
(** ["1"|"a"|"b"|"c"]; raises [Invalid_argument] otherwise. *)

val workload : rounds:int -> Topology.Graph.t -> Protocol.Pi.t
(** The standard bench workload: pseudorandom chatter at density 0.5,
    seed 3 — any uncorrected corruption is visible in the outputs. *)

(** {2 Serialization (version-checked)} *)

val candidate_to_json : Coding.Attacks.candidate -> string
(** The candidate sub-object alone (also used by {!Search} reports). *)

val to_json : t -> string
val of_json : Util.Json.t -> (t, string) result
val parse : string -> (t, string) result
val save : path:string -> t -> unit
val load : path:string -> (t, string) result

(** {2 Replay} *)

type trial_replay = {
  trial : int;
  outcome_class : string;  (** {!Fitness.outcome_class} of the run *)
  success : bool;
  cc : int;
  corruptions : int;
  noise_fraction : float;
  hunter_hits : int;
}

val run_trial : ?sink:Trace.Sink.t -> t -> int -> trial_replay
(** Replay one trial (deterministic; see the module comment).  [sink]
    (default {!Trace.Sink.disabled}) receives the run's trace events;
    it does not change the replay. *)

val replay : ?jobs:int -> t -> trial_replay list
(** All trials through {!Runner.Pool}, merged in trial order.  [jobs]
    defaults to 1. *)

val classes : trial_replay list -> string
(** Comma-joined per-trial outcome classes — the [expected] subject. *)

val pin_expected : t -> t
(** Replay (at jobs = 1) and pin the observed classes into
    [expected]. *)

val check : ?jobs:int -> t -> (trial_replay list, string) result
(** Replay and compare against [expected]; [Error] describes the first
    mismatch.  A scenario without [expected] always passes. *)
