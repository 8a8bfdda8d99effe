(* The four named workloads and their fixed trial sets.

   A trial is one [Coding.Scheme.run_outcome] of a workload's protocol Π
   under one trial key.  The key set is a pure function of the workload
   seed and the workload's trial family: workloads of one family run the
   very same trials (same inputs, same noise, same scheme randomness) and
   differ only in how they execute them. *)

type topology = Line of int | Clique of int | Grid of int

type spec = {
  name : string;
  family : string;  (** trial-key namespace, shared by workloads that run identical trials *)
  topology : topology;
  exchange : bool;  (** Algorithm A (exchanged δ-biased seeds) instead of Algorithm 1 (CRS) *)
  pi_rounds : int;
  noise : float;  (** oblivious iid corruption probability per slot; 0 = silent adversary *)
  shards : int;  (** 1 = lockstep backend, otherwise the live engine at d = 0 *)
  trials : int;  (** size of the fixed trial set *)
}

let all =
  [
    { name = "line16-crs-iid"; family = "line16-iid"; topology = Line 16; exchange = false;
      pi_rounds = 300; noise = 5e-4; shards = 1; trials = 52 };
    { name = "k5-exch-iid"; family = "k5-iid"; topology = Clique 5; exchange = true;
      pi_rounds = 300; noise = 5e-4; shards = 1; trials = 32 };
    { name = "grid256-crs-clean"; family = "grid256-clean"; topology = Grid 16; exchange = false;
      pi_rounds = 150; noise = 0.; shards = 1; trials = 6 };
    { name = "grid256-live2-clean"; family = "grid256-clean"; topology = Grid 16;
      exchange = false; pi_rounds = 150; noise = 0.; shards = 2; trials = 6 };
  ]

let find name = List.find_opt (fun s -> s.name = name) all

(* Smoke sizes: the same shapes shrunk until a whole run takes well under
   a second, for checking the harness rather than measuring it. *)
let tiny s =
  let topology =
    match s.topology with Line _ -> Line 5 | Clique _ -> Clique 3 | Grid _ -> Grid 3
  in
  { s with topology; pi_rounds = 30; trials = 2 }

type trial = {
  index : int;
  inputs : int array;
  reference : int array;  (** Π's noiseless outputs on [inputs] *)
  adversary : Netsim.Adversary.t;  (** oblivious, hence reusable across repeats *)
  rng : Util.Rng.t;  (** scheme randomness; copied before every run *)
}

type env = {
  spec : spec;
  graph : Topology.Graph.t;
  pi : Protocol.Pi.t;
  params : Coding.Params.t;
  backend : Coding.Scheme.backend;
  set : trial array;
  warm_up : trial;  (** the untimed warm-up trial: one fixed key, whatever the seed *)
}

let graph_of = function
  | Line n -> Topology.Graph.line n
  | Clique n -> Topology.Graph.clique n
  | Grid side -> Topology.Graph.grid ~rows:side ~cols:side

let backend_of spec =
  if spec.shards = 1 then Coding.Scheme.Lockstep
  else Coding.Scheme.Live (Live.Config.make ~shards:spec.shards ~ragged_d:0 ())

(* Everything a run builds before its first timed trial: graph, Π,
   params, and per trial the inputs, the noiseless reference and the
   adversary. *)
let build spec ~seed =
  let graph = graph_of spec.topology in
  let n = Topology.Graph.n graph in
  let pi = Protocol.Protocols.random_chatter graph ~rounds:spec.pi_rounds ~density:0.5 ~seed:3 in
  let params =
    if spec.exchange then Coding.Params.algorithm_a graph else Coding.Params.algorithm_1 graph
  in
  let trial key index =
    let r = Runner.Pool.trial_rng ~key index in
    let inputs = Array.init n (fun _ -> Util.Rng.int r 65536) in
    let adversary =
      if spec.noise > 0. then Netsim.Adversary.iid (Util.Rng.split r) ~rate:spec.noise
      else Netsim.Adversary.Silent
    in
    { index; inputs; reference = Protocol.Pi.run_noiseless pi ~inputs; adversary;
      rng = Util.Rng.split r }
  in
  let key = Printf.sprintf "perfbench:%s:%d" spec.family seed in
  {
    spec;
    graph;
    pi;
    params;
    backend = backend_of spec;
    set = Array.init spec.trials (trial key);
    warm_up = trial (Printf.sprintf "perfbench:%s:warm-up" spec.family) 0;
  }

(* One execution of a trial.  [None] when the run aborted or raised: the
   scheme promises never to raise, so an exception is a failed trial,
   not a harness crash. *)
let run ?(sink = Trace.Sink.disabled) ?backend env t =
  let backend = Option.value backend ~default:env.backend in
  let config = Coding.Scheme.Config.make ~inputs:t.inputs ~backend ~sink () in
  match
    Coding.Scheme.run_outcome ~config ~rng:(Util.Rng.copy t.rng) env.params env.pi t.adversary
  with
  | Faults.Outcome.Completed r | Faults.Outcome.Degraded (r, _) -> Some r
  | Faults.Outcome.Aborted _ -> None
  | exception _ -> None

let correct t = function
  | Some r -> r.Coding.Scheme.outputs = t.reference
  | None -> false
