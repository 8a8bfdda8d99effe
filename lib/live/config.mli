(** Configuration of the live execution backend (see DESIGN.md §3h). *)

type t = {
  shards : int;
      (** jitter units (>= 1): contiguous party ranges, each of which
          lags its whole round on its own keyed draw.  They change no
          output at [ragged_d = 0] *)
  ragged_d : int;
      (** synchrony slack: a unit's round may land up to [ragged_d]
          rounds late, by keyed jitter; 0 = lockstep (byte-identical to
          the reference backend) *)
  jitter_rate : float;
      (** probability that a (round, unit) pair draws a lag in
          [1..ragged_d] *)
  jitter_key : int64;  (** seed of the deterministic jitter stream *)
}

val make :
  ?shards:int ->
  ?ragged_d:int ->
  ?jitter_rate:float ->
  ?jitter_key:int64 ->
  unit ->
  t
(** [shards] defaults to [1] on every host, so a ragged run draws the
    same lags wherever it runs; [ragged_d] to [0]; [jitter_rate] to
    [0.001] (on mic's default cycle-8 run the scheme fails from a lag
    rate of about 0.005 on).  Raises [Invalid_argument] on out-of-range
    values. *)

val default : t
(** One unit, lockstep — semantically the reference backend run
    through the live engine. *)

val pp : Format.formatter -> t -> unit
