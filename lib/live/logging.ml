(* Per-subsystem log sources, one per moving part of the live runtime,
   so `--verbose` output can be filtered down to the layer under
   suspicion (mic.live for engine lifecycle, mic.live.shard for the
   partition, mic.live.barrier for barrier synchronization).

   Logging discipline: the Logs reporter is not domain-safe, so only
   the leader domain (create / join / shutdown paths) may log.  Worker
   domains never call these. *)

let live_src = Logs.Src.create "mic.live" ~doc:"Live concurrent execution backend"

module Live_log = (val Logs.src_log live_src : Logs.LOG)

let shard_src = Logs.Src.create "mic.live.shard" ~doc:"Degree-balanced party sharding"

module Shard_log = (val Logs.src_log shard_src : Logs.LOG)

let barrier_src = Logs.Src.create "mic.live.barrier" ~doc:"Round and join barriers"

module Barrier_log = (val Logs.src_log barrier_src : Logs.LOG)
