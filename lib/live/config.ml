(* Configuration of ragged synchrony, installed on a run's network.
   Per (round, unit) a lag in [1..ragged_d] is drawn with probability
   [jitter_rate] from the pure SplitMix stream keyed by [jitter_key], so
   ragged runs are exactly reproducible; the lags, keyed per unit,
   change with the unit count, whose default is the same on every
   host. *)

type t = {
  shards : int;
  ragged_d : int;
  jitter_rate : float;
  jitter_key : int64;
}

let make ?(shards = 1) ?(ragged_d = 0) ?(jitter_rate = 0.001) ?(jitter_key = 0x11feL) () =
  if shards < 1 then invalid_arg "Live.Config.make: shards must be >= 1";
  if ragged_d < 0 then invalid_arg "Live.Config.make: ragged_d must be >= 0";
  if not (jitter_rate >= 0. && jitter_rate <= 1.) then
    invalid_arg "Live.Config.make: jitter_rate must be in [0,1]";
  { shards; ragged_d; jitter_rate; jitter_key }

let default = make ()

let pp ppf t =
  Format.fprintf ppf "{shards=%d; d=%d; jitter_rate=%g}" t.shards t.ragged_d t.jitter_rate

let install t net ~weights =
  if t.ragged_d > 0 then begin
    let module Network = Netsim.Network in
    let sh = Shard.partition ~weights ~shards:t.shards in
    Logging.Live_log.debug (fun m -> m "jitter: d=%d, units %a" t.ragged_d Shard.pp sh);
    let two_m = 2 * Topology.Graph.m (Network.graph net) in
    Network.set_jitter net ~d:t.ragged_d ~rate:t.jitter_rate ~key:t.jitter_key
      ~units:(Array.init two_m (fun dir -> Shard.owner sh (fst (Network.link_ends net ~dir))))
  end
