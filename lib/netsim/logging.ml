(* Per-subsystem log source for the network simulator, filterable with
   `mic --log-level mic.netsim:debug`.  Same discipline as lib/live:
   only setup paths (create / fault-hook installation / stats) log —
   never the per-round commit path. *)

let src = Logs.Src.create "mic.netsim" ~doc:"Noisy-network simulator"

module Log = (val Logs.src_log src : Logs.LOG)
