(* The round facade over [Network.commit] (see exec.mli). *)

module Network = Netsim.Network

type t = { net : Network.t; buf : Network.Active.t }

let create ~net ~config ~weights () =
  Config.install config net ~weights;
  { net; buf = Network.active net }

let round t ?label ~write ~read () =
  Network.Active.begin_round t.buf;
  write ~shard:0 t.buf;
  Option.iter (fun f -> f ()) label;
  Network.commit t.net t.buf;
  read ~shard:0 t.buf

let slice (_ : t) f = f 0
let join (_ : t) = ()
let shutdown (_ : t) = ()
