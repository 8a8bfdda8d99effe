(* Configuration of the live execution backend.

   [shards] is the number of jitter units: contiguous party ranges, each
   of which lags its whole round on its own keyed draw; [ragged_d] is
   the synchrony slack: a unit's round may land up to [ragged_d] rounds
   late (d = 0 is full lockstep, proved byte-identical to the reference
   backend by the differential suite).

   Ragged synchrony is keyed jitter: per (round, unit) a lag in [1..d]
   is drawn with probability [jitter_rate] from the pure SplitMix
   stream seeded by [jitter_key].  That keeps the ragged benchmarks and
   tests exactly reproducible; the lags, being keyed per unit, change
   with the unit count, whose default is the same on every host. *)

type t = {
  shards : int;
  ragged_d : int;
  jitter_rate : float;
  jitter_key : int64;
}

let make ?(shards = 1) ?(ragged_d = 0) ?(jitter_rate = 0.001) ?(jitter_key = 0x11feL) () =
  if shards < 1 then invalid_arg "Live.Config.make: shards must be >= 1";
  if ragged_d < 0 then invalid_arg "Live.Config.make: ragged_d must be >= 0";
  if jitter_rate < 0. || jitter_rate > 1. then
    invalid_arg "Live.Config.make: jitter_rate must be in [0,1]";
  { shards; ragged_d; jitter_rate; jitter_key }

let default = make ()

let pp ppf t =
  Format.fprintf ppf "{shards=%d; d=%d; jitter_rate=%g}" t.shards t.ragged_d t.jitter_rate
