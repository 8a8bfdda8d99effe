(* The live runtime's log source, mic.live (engine lifecycle), so
   `--verbose` output can be filtered down to it. *)

let live_src = Logs.Src.create "mic.live" ~doc:"Live execution backend"

module Live_log = (val Logs.src_log live_src : Logs.LOG)
