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

let repetition ?inputs ~rng ~rep pi adversary =
  if rep < 1 || rep mod 2 = 0 then invalid_arg "Baseline.repetition: rep must be odd";
  let graph = pi.Pi.graph in
  let n = Topology.Graph.n graph in
  let inputs = match inputs with Some i -> i | None -> default_inputs rng n in
  let reference = Pi.run_noiseless pi ~inputs in
  let net = Netsim.Network.create graph adversary in
  let act = Netsim.Network.active net in
  let machines = Array.init n (fun party -> pi.Pi.spawn ~party ~input:inputs.(party)) in
  let two_m = 2 * Topology.Graph.m graph in
  let bits = Array.make two_m false and ones = Array.make two_m 0 and seen = Array.make two_m 0 in
  Array.iteri
    (fun r ds ->
      Array.iter
        (fun d ->
          let u, v = Topology.Graph.dir_ends graph d in
          bits.(d) <- machines.(u).Pi.send ~round:r ~dst:v;
          ones.(d) <- 0;
          seen.(d) <- 0)
        ds;
      (* Each logical round becomes [rep] network rounds; receivers
         majority-vote over the scheduled copies that arrive (a deletion
         abstains, insertions outside the schedule are ignored). *)
      for _copy = 1 to rep do
        Netsim.Network.Active.begin_round act;
        Array.iter (fun d -> Netsim.Network.Active.send act ~dir:d bits.(d)) ds;
        Netsim.Network.commit net act;
        Array.iter
          (fun d ->
            match Netsim.Network.Active.get act ~dir:d with
            | Some bit ->
                if bit then ones.(d) <- ones.(d) + 1;
                seen.(d) <- seen.(d) + 1
            | None -> ())
          ds
      done;
      Array.iter
        (fun d ->
          let u, v = Topology.Graph.dir_ends graph d in
          machines.(v).Pi.recv ~round:r ~src:u (2 * ones.(d) > seen.(d)))
        ds)
    pi.Pi.schedule;
  finish net pi ~outputs:(Array.map (fun mc -> mc.Pi.output ()) machines) ~reference

let uncoded ?inputs ~rng pi adversary = repetition ?inputs ~rng ~rep:1 pi adversary
