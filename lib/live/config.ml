(* Configuration of the live execution backend.

   [shards] is the number of worker domains the parties are split
   across; [ragged_d] is the synchrony slack: shards may run up to
   [ragged_d] rounds ahead of the slowest commit before blocking
   (d = 0 is full lockstep, proved byte-identical to the reference
   backend by the differential suite).

   The serial engine (chosen by [force_serial] or by shards = 1; Scheme
   sets [force_serial] for an adversary spy, which needs a single-domain
   event order) cannot develop *real* scheduling skew, so for d > 0 it
   injects a deterministic keyed jitter: per (round, shard) a lag in
   [1..d] is drawn with probability [jitter_rate] from the pure
   SplitMix stream seeded by [jitter_key].  This keeps the ragged
   benchmarks and tests reproducible while the parallel engine exhibits
   the genuine article. *)

type t = {
  shards : int;
  ragged_d : int;
  jitter_rate : float;
  jitter_key : int64;
  force_serial : bool;
}

let default_shards () = max 1 (Domain.recommended_domain_count ())

let make ?shards ?(ragged_d = 0) ?(jitter_rate = 0.05) ?(jitter_key = 0x11feL)
    ?(force_serial = false) () =
  let shards = match shards with Some s -> s | None -> default_shards () in
  if shards < 1 then invalid_arg "Live.Config.make: shards must be >= 1";
  if ragged_d < 0 then invalid_arg "Live.Config.make: ragged_d must be >= 0";
  if jitter_rate < 0. || jitter_rate > 1. then
    invalid_arg "Live.Config.make: jitter_rate must be in [0,1]";
  { shards; ragged_d; jitter_rate; jitter_key; force_serial }

let default = make ~shards:1 ()

let pp ppf t =
  Format.fprintf ppf "{shards=%d; d=%d; jitter_rate=%g; serial=%b}" t.shards t.ragged_d
    t.jitter_rate t.force_serial
