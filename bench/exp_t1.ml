(* T1 — reproduction of Table 1 (the paper's only table).

   Paper columns:  scheme | topology | noise level | noise type | rate | efficient
   Measured here:  scheme | topology | noise level (nominal) | noise type |
                   rate blowup (CC / CC(Π), mean/sd/p95) | success rate
                   with Wilson 95% interval over trials

   Table 1's prior-work rows (RS94, ABGEH16, HS16, JKL15) are tree-code or
   BSC schemes we summarise by their published guarantees; the rows the
   paper contributes — Algorithms 1/A/B/C — are measured live, together
   with uncoded and repetition baselines for context.  The qualitative
   claims to check:
     - Algorithms A/B/C have constant rate (bounded blowup) and run in
       polynomial time (prior adversarial-noise schemes used tree codes
       with no known efficient construction);
     - 1/A tolerate Θ(1/m) oblivious insdel noise;
     - B tolerates Θ(1/(m log m)) non-oblivious insdel noise;
     - C (pre-shared randomness) sits in between at Θ(1/(m log log m)). *)

let trials = 8

let print_row name topo noise ntype rate success efficient =
  Format.printf "%-24s %-9s %-17s %-13s %22s %16s %10s@." name topo noise ntype rate success
    efficient

let measured_row name topo noise ntype (s : Exp_common.summary) =
  print_row name topo noise ntype (Exp_common.blowup_cell s) (Exp_common.success_cell s) "yes"

let run () =
  Exp_common.heading "T1  |  Table 1: interactive coding schemes in the multiparty setting";
  print_row "scheme" "topology" "noise level" "noise type" "rate (mean/sd/p95)" "success [95%]"
    "efficient";
  Format.printf "%s@." (String.make 116 '-');
  print_row "RS94 (quoted)" "arbitrary" "BSC_eps" "stochastic" "1/O(log d)" "-" "no";
  print_row "JKL15 (quoted)" "star" "O(1/m)" "substitution" "Theta(1)" "-" "no";
  print_row "HS16 (quoted)" "arbitrary" "O(1/m)" "substitution" "Theta(1)" "-" "no";
  Format.printf "%s@." (String.make 116 '-');
  let cycle = Topology.Graph.cycle 8 in
  let m = Topology.Graph.m cycle in
  let fm = float_of_int m in
  let random_g = Topology.Graph.random_connected (Util.Rng.create 77) ~n:8 ~extra_edges:4 in
  let pi_cycle = Exp_common.workload cycle in
  let pi_random = Exp_common.workload random_g in
  let baseline f =
    Exp_common.run_trials ~trials (fun t ->
        let b = f t in
        {
          Coding.Scheme.success = b.Coding.Baseline.success;
          outputs = b.Coding.Baseline.outputs;
          reference = b.Coding.Baseline.reference;
          cc = b.Coding.Baseline.cc;
          cc_pi = b.Coding.Baseline.cc_pi;
          rate_blowup = b.Coding.Baseline.rate_blowup;
          rounds = 0;
          corruptions = b.Coding.Baseline.corruptions;
          noise_fraction = b.Coding.Baseline.noise_fraction;
          iterations_run = 0;
          chunks_total = 0;
          exchange_failures = 0;
          chunks_rewound = 0;
          mp_truncations = 0;
          rewinds = 0;
          mp_decided = 0;
          trace = [];
        })
  in
  let rng key t = Exp_common.trial_rng key t in
  measured_row "uncoded" "cycle" "0.05/m" "obliv insdel"
    (baseline (fun t ->
         Coding.Baseline.uncoded ~rng:(rng "t1:uncoded:scheme" t) pi_cycle
           (Netsim.Adversary.iid (rng "t1:uncoded:adv" t) ~rate:(0.05 /. fm))));
  measured_row "repetition x5" "cycle" "0.05/m" "obliv insdel"
    (baseline (fun t ->
         Coding.Baseline.repetition ~rng:(rng "t1:rep5:scheme" t) ~rep:5 pi_cycle
           (Netsim.Adversary.iid (rng "t1:rep5:adv" t) ~rate:(0.05 /. fm))));
  (* Repetition only survives *scattered* noise; an adversary that
     concentrates five corruptions on one transmission defeats it with a
     vanishing noise fraction — the stateless-defence failure mode. *)
  measured_row "repetition x5" "cycle" "targeted" "adapt insdel"
    (baseline (fun t ->
         let u, v = List.hd (Protocol.Pi.sends_at pi_cycle 0) in
         Coding.Baseline.repetition ~rng:(rng "t1:rep5t:scheme" t) ~rep:5 pi_cycle
           (Netsim.Adversary.burst (rng "t1:rep5t:adv" t) ~start_round:0 ~len:5
              ~dirs:[ Topology.Graph.dir_id cycle ~src:u ~dst:v ])));
  Format.printf "%s@." (String.make 116 '-');
  let eps_slot = 0.002 in
  measured_row "Algorithm 1 (CRS)" "cycle" "eps/m" "obliv insdel"
    (Exp_common.run_trials ~trials (fun t ->
         Coding.Scheme.run ~rng:(rng "t1:alg1:scheme" t) (Coding.Params.algorithm_1 cycle)
           pi_cycle
           (Netsim.Adversary.iid (rng "t1:alg1:adv" t) ~rate:(eps_slot /. fm))));
  measured_row "Algorithm 1 (CRS)" "random" "eps/m" "obliv insdel"
    (Exp_common.run_trials ~trials (fun t ->
         Coding.Scheme.run ~rng:(rng "t1:alg1r:scheme" t) (Coding.Params.algorithm_1 random_g)
           pi_random
           (Netsim.Adversary.iid (rng "t1:alg1r:adv" t)
              ~rate:(eps_slot /. float_of_int (Topology.Graph.m random_g)))));
  measured_row "Algorithm A (no CRS)" "cycle" "eps/m" "obliv insdel"
    (Exp_common.run_trials ~trials (fun t ->
         Coding.Scheme.run ~rng:(rng "t1:algA:scheme" t) (Coding.Params.algorithm_a cycle)
           pi_cycle
           (Netsim.Adversary.iid (rng "t1:algA:adv" t) ~rate:(eps_slot /. fm))));
  let logm = float_of_int (Coding.Params.ceil_log2 m) in
  measured_row "Algorithm B" "cycle" "eps/(m log m)" "adapt insdel"
    (Exp_common.run_trials ~trials (fun t ->
         let { Coding.Attacks.adversary; spy_hook; _ } =
           Exp_common.attack ~graph:cycle ~edges:[ t mod m ]
             ~rate_denom:(int_of_float (fm *. logm /. eps_slot))
             Coding.Attacks.Hunter
         in
         Coding.Scheme.run
           ~config:(Coding.Scheme.Config.make ?spy_hook ())
           ~rng:(rng "t1:algB:scheme" t) (Coding.Params.algorithm_b cycle) pi_cycle adversary));
  measured_row "Algorithm C (CRS)" "cycle" "eps/(m llog m)" "adapt insdel"
    (Exp_common.run_trials ~trials (fun t ->
         let { Coding.Attacks.adversary; spy_hook; _ } =
           Exp_common.attack ~graph:cycle ~edges:[ t mod m ]
             ~rate_denom:(int_of_float (fm *. 2. /. eps_slot))
             Coding.Attacks.Hunter
         in
         Coding.Scheme.run
           ~config:(Coding.Scheme.Config.make ?spy_hook ())
           ~rng:(rng "t1:algC:scheme" t) (Coding.Params.algorithm_c cycle) pi_cycle adversary));
  Format.printf "%s@." (String.make 116 '-');
  Format.printf
    "All measured rows completed in polynomial time; the uncoded/repetition rows show@.";
  Format.printf "why naive protection fails under insertion-deletion noise.@."
