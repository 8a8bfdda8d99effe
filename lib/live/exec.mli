(** The round facade that perfbench's layer micro-benchmark links.  A
    phase driver commits to {!Netsim.Network} directly; each call here
    is a few lines over {!Netsim.Network.commit}.  The benchmark
    revision that retires [live.exec.*_join_ns] (ROADMAP item 7)
    deletes this module. *)

type t

val create : net:Netsim.Network.t -> config:Config.t -> weights:int array -> unit -> t
(** A facade over [net] and one round buffer.  Installs [config]'s
    jitter on [net] ({!Config.install}; nothing at [ragged_d = 0]). *)

val round :
  t ->
  ?label:(unit -> unit) ->
  write:(shard:int -> Netsim.Network.Active.t -> unit) ->
  read:(shard:int -> Netsim.Network.Active.t -> unit) ->
  unit ->
  unit
(** One round: {!Netsim.Network.Active.begin_round} on the buffer,
    [write ~shard:0], [label], {!Netsim.Network.commit}, then
    [read ~shard:0] of the delivered round. *)

val slice : t -> (int -> unit) -> unit
(** [slice t f] is [f 0]. *)

val join : t -> unit
(** A no-op. *)

val shutdown : t -> unit
(** A no-op. *)
