(* The live runtime's log source, mic.live (engine lifecycle), so
   `--verbose` output can be filtered down to it.

   Logging discipline: the Logs reporter is not domain-safe, so only
   the leader domain (create / join / shutdown paths) may log.  Worker
   domains never call these. *)

let live_src = Logs.Src.create "mic.live" ~doc:"Live concurrent execution backend"

module Live_log = (val Logs.src_log live_src : Logs.LOG)
