(** JSON summaries of Monte Carlo runs.

    A {!t} is the machine-readable counterpart of an experiment table
    row block: trial counts, the Wilson 95% interval on the success
    rate, per-metric {!Accum.summary} statistics, and timing.  Timing
    (and the job count that produced it) is an execution artifact, not
    part of the determinism contract, so {!to_json} can omit it: for a
    fixed key, [to_json ~timing:false] is byte-identical for any job
    count. *)

type t = {
  experiment : string;
  key : string;  (** RNG derivation key of the run *)
  trials : int;
  successes : int;
  errors : int;  (** trials that raised, recorded by the pool *)
  jobs : int;
  wall_s : float;
  metrics : (string * Accum.summary) list;
}

val wilson : t -> float * float
(** 95% Wilson interval on the success proportion. *)

val to_json : ?timing:bool -> t -> string
(** One JSON object.  [timing] (default true) controls the [jobs],
    [wall_s] and [per_trial_s] fields; everything else is a pure
    function of the trial outcomes. *)

val write_file : path:string -> string -> unit
(** Write a rendered JSON document (adds a trailing newline if
    missing). *)
