(** Configuration of the live execution backend (see DESIGN.md §3h). *)

type t = {
  shards : int;  (** worker domains the parties are sharded across (>= 1) *)
  ragged_d : int;
      (** synchrony slack: shards may run up to [ragged_d] rounds ahead
          of the slowest commit; 0 = lockstep (byte-identical to the
          reference backend) *)
  jitter_rate : float;
      (** serial engine only: probability that a (round, shard) pair
          draws a simulated lag in [1..ragged_d] *)
  jitter_key : int64;  (** seed of the deterministic jitter stream *)
  force_serial : bool;
      (** run the single-domain engine even for [shards] > 1 —
          deterministic; the only serial switch besides [shards = 1]
          (used by the ragged benchmarks and for an adversary spy) *)
}

val make :
  ?shards:int ->
  ?ragged_d:int ->
  ?jitter_rate:float ->
  ?jitter_key:int64 ->
  ?force_serial:bool ->
  unit ->
  t
(** [shards] defaults to [Domain.recommended_domain_count ()]; [ragged_d]
    to [0]; [jitter_rate] to [0.05]; [force_serial] to [false].
    Raises [Invalid_argument] on out-of-range values. *)

val default : t
(** One shard, lockstep — semantically the reference backend run
    through the live engine. *)

val default_shards : unit -> int

val pp : Format.formatter -> t -> unit
