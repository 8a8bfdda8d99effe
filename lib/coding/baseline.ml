open Protocol

type result = {
  success : bool;
  outputs : int array;
  reference : int array;
  cc : int;
  cc_pi : int;
  rate_blowup : float;
  corruptions : int;
  noise_fraction : float;
}

let finish net pi ~outputs ~reference =
  let stats = Netsim.Network.stats net in
  let cc = stats.Netsim.Network.cc in
  let cc_pi = Pi.cc pi in
  {
    success = outputs = reference;
    outputs;
    reference;
    cc;
    cc_pi;
    rate_blowup = (if cc_pi = 0 then infinity else float_of_int cc /. float_of_int cc_pi);
    corruptions = stats.Netsim.Network.corruptions;
    noise_fraction = stats.Netsim.Network.noise_fraction;
  }

let default_inputs rng n = Array.init n (fun _ -> Util.Rng.int rng 65536)

let uncoded ?inputs ~rng pi adversary =
  Pi.validate pi;
  let graph = pi.Pi.graph in
  let n = Topology.Graph.n graph in
  let inputs = match inputs with Some i -> i | None -> default_inputs rng n in
  let reference = Pi.run_noiseless pi ~inputs in
  let net = Netsim.Network.create graph adversary in
  let act = Netsim.Network.active net in
  let machines = Array.init n (fun party -> pi.Pi.spawn ~party ~input:inputs.(party)) in
  for r = 0 to pi.Pi.rounds - 1 do
    let scheduled = pi.Pi.sends_at r in
    Netsim.Network.Active.begin_round act;
    List.iter
      (fun (u, v) ->
        Netsim.Network.Active.send act
          ~dir:(Topology.Graph.dir_id graph ~src:u ~dst:v)
          (machines.(u).Pi.send ~round:r ~dst:v))
      scheduled;
    Netsim.Network.commit net act;
    (* Receivers expect exactly the scheduled transmissions; a deletion
       reads as 0, insertions outside the schedule are ignored. *)
    List.iter
      (fun (u, v) ->
        let bit =
          Option.value ~default:false
            (Netsim.Network.Active.get act ~dir:(Topology.Graph.dir_id graph ~src:u ~dst:v))
        in
        machines.(v).Pi.recv ~round:r ~src:u bit)
      scheduled
  done;
  finish net pi ~outputs:(Array.map (fun mc -> mc.Pi.output ()) machines) ~reference

let repetition ?inputs ~rng ~rep pi adversary =
  if rep < 1 || rep mod 2 = 0 then invalid_arg "Baseline.repetition: rep must be odd";
  Pi.validate pi;
  let graph = pi.Pi.graph in
  let n = Topology.Graph.n graph in
  let inputs = match inputs with Some i -> i | None -> default_inputs rng n in
  let reference = Pi.run_noiseless pi ~inputs in
  let net = Netsim.Network.create graph adversary in
  let act = Netsim.Network.active net in
  let machines = Array.init n (fun party -> pi.Pi.spawn ~party ~input:inputs.(party)) in
  for r = 0 to pi.Pi.rounds - 1 do
    let scheduled = pi.Pi.sends_at r in
    let sends =
      List.map (fun (u, v) -> (u, v, machines.(u).Pi.send ~round:r ~dst:v)) scheduled
    in
    (* Each logical round becomes [rep] network rounds; receivers
       majority-vote over the copies that arrive. *)
    let votes = Hashtbl.create 8 in
    for _copy = 1 to rep do
      Netsim.Network.Active.begin_round act;
      List.iter
        (fun (u, v, bit) ->
          Netsim.Network.Active.send act ~dir:(Topology.Graph.dir_id graph ~src:u ~dst:v) bit)
        sends;
      Netsim.Network.commit net act;
      Netsim.Network.Active.iter act (fun ~dir bit ->
          let key = Netsim.Network.link_ends net ~dir in
          let ones, seen = Option.value ~default:(0, 0) (Hashtbl.find_opt votes key) in
          Hashtbl.replace votes key ((ones + if bit then 1 else 0), seen + 1))
    done;
    List.iter
      (fun (u, v) ->
        let ones, seen = Option.value ~default:(0, 0) (Hashtbl.find_opt votes (u, v)) in
        machines.(v).Pi.recv ~round:r ~src:u (2 * ones > seen))
      scheduled
  done;
  finish net pi ~outputs:(Array.map (fun mc -> mc.Pi.output ()) machines) ~reference
