(* Tests for the extension modules: the gossip/convergecast protocols,
   the fully-utilised model conversion, the potential function of §4.1,
   and the scheme-aware attacks of §6.1. *)

let rng = Util.Rng.create 0xE87

(* ---------- gossip_max / convergecast_sum ---------- *)

let graphs =
  [
    ("line", Topology.Graph.line 6);
    ("cycle", Topology.Graph.cycle 7);
    ("star", Topology.Graph.star 6);
    ("tree", Topology.Graph.binary_tree 9);
    ("random", Topology.Graph.random_connected (Util.Rng.create 3) ~n:8 ~extra_edges:5);
  ]

let test_gossip_max_correct () =
  List.iter
    (fun (name, g) ->
      let n = Topology.Graph.n g in
      let pi = Protocol.Protocols.gossip_max g ~bits:12 in
      let inputs = Array.init n (fun _ -> Util.Rng.int rng 4096) in
      let expected = Array.fold_left max 0 inputs in
      Array.iteri
        (fun p o -> Alcotest.(check int) (Printf.sprintf "%s party %d" name p) expected o)
        (Protocol.Pi.run_noiseless pi ~inputs))
    graphs

let test_convergecast_sum_correct () =
  List.iter
    (fun (name, g) ->
      let n = Topology.Graph.n g in
      let pi = Protocol.Protocols.convergecast_sum g ~bits:10 in
      let inputs = Array.init n (fun _ -> Util.Rng.int rng 1024) in
      let log2n =
        let rec lg acc p = if p >= n then acc else lg (acc + 1) (2 * p) in
        lg 0 1
      in
      let mask = (1 lsl min 30 (10 + max 1 log2n)) - 1 in
      let expected = Array.fold_left ( + ) 0 inputs land mask in
      Array.iteri
        (fun p o -> Alcotest.(check int) (Printf.sprintf "%s party %d" name p) expected o)
        (Protocol.Pi.run_noiseless pi ~inputs))
    graphs

let test_gossip_max_coded_under_noise () =
  let g = Topology.Graph.cycle 6 in
  let pi = Protocol.Protocols.gossip_max g ~bits:10 in
  let inputs = [| 5; 900; 17; 1023; 44; 300 |] in
  let adv = Netsim.Adversary.iid (Util.Rng.create 8) ~rate:0.0008 in
  let r =
    Coding.Scheme.run ~config:(Coding.Scheme.Config.make ~inputs ()) ~rng:(Util.Rng.create 9) (Coding.Params.algorithm_1 g) pi adv
  in
  Alcotest.(check bool) "success" true r.Coding.Scheme.success;
  Array.iter (fun o -> Alcotest.(check int) "max value" 1023 o) r.Coding.Scheme.outputs

(* ---------- fully utilised conversion ---------- *)

let test_fully_utilized_same_outputs () =
  List.iter
    (fun (name, g) ->
      let n = Topology.Graph.n g in
      let pi = Protocol.Protocols.random_chatter g ~rounds:80 ~density:0.3 ~seed:5 in
      let fu = Protocol.Fully_utilized.of_pi pi in
      (* Every round keeps Π's transmissions, in order, ahead of the
         fill, and uses all 2m directed links. *)
      for r = 0 to pi.Protocol.Pi.rounds - 1 do
        let orig = Protocol.Pi.sends_at pi r and full = Protocol.Pi.sends_at fu r in
        Alcotest.(check bool) (name ^ ": original first") true
          (List.filteri (fun i _ -> i < List.length orig) full = orig);
        Alcotest.(check int) (name ^ ": fully utilised") (2 * Topology.Graph.m g)
          (List.length (List.sort_uniq compare full))
      done;
      let inputs = Array.init n (fun i -> i * 31) in
      Alcotest.(check bool) (name ^ ": outputs preserved") true
        (Protocol.Pi.run_noiseless pi ~inputs = Protocol.Pi.run_noiseless fu ~inputs))
    graphs

let test_fully_utilized_cc () =
  let g = Topology.Graph.cycle 6 in
  let pi = Protocol.Protocols.random_chatter g ~rounds:100 ~density:0.2 ~seed:6 in
  let fu = Protocol.Fully_utilized.of_pi pi in
  Alcotest.(check int) "cc = 2m * rounds" (2 * Topology.Graph.m g * pi.Protocol.Pi.rounds)
    (Protocol.Pi.cc fu);
  Alcotest.(check bool) "expansion > 1 on sparse protocols" true
    (Protocol.Fully_utilized.expansion pi > 1.5)

let test_fully_utilized_of_dense_is_cheap () =
  let g = Topology.Graph.cycle 6 in
  let pi = Protocol.Protocols.gossip_max g ~bits:8 in
  (* gossip_max is already fully utilised: expansion exactly 1. *)
  Alcotest.(check (float 0.001)) "expansion 1" 1.0 (Protocol.Fully_utilized.expansion pi)

(* ---------- potential function ---------- *)

let trace_of adversary seed =
  let g = Topology.Graph.cycle 6 in
  let pi = Protocol.Protocols.random_chatter g ~rounds:150 ~density:0.5 ~seed:2 in
  let r =
    Coding.Scheme.run ~config:(Coding.Scheme.Config.make ~trace:true ()) ~rng:(Util.Rng.create seed) (Coding.Params.algorithm_1 g) pi
      adversary
  in
  (r, Topology.Graph.m g)

let test_potential_rises_noiseless () =
  let r, m = trace_of Netsim.Adversary.Silent 11 in
  Alcotest.(check bool) "success" true r.Coding.Scheme.success;
  Alcotest.(check bool) "lemma 4.2 (noiseless)" true
    (Coding.Potential.check_clean_exact ~k:m ~m r.Coding.Scheme.trace);
  (* In a clean run the increase is exactly K each iteration. *)
  List.iter
    (fun d -> Alcotest.(check (float 0.001)) "delta = K" (float_of_int m) d)
    (Coding.Potential.increments ~k:m ~m r.Coding.Scheme.trace)

let test_potential_rises_with_burst () =
  let adv = Netsim.Adversary.burst (Util.Rng.create 12) ~start_round:300 ~len:25 ~dirs:[ 0; 1 ] in
  let r, m = trace_of adv 13 in
  Alcotest.(check bool) "lemma 4.2 amortized (burst)" true
    (Coding.Potential.check_amortized ~k:m ~m r.Coding.Scheme.trace)

let test_potential_rises_with_iid () =
  let adv = Netsim.Adversary.iid (Util.Rng.create 14) ~rate:0.001 in
  let r, m = trace_of adv 15 in
  Alcotest.(check bool) "lemma 4.2 amortized (iid)" true
    (Coding.Potential.check_amortized ~k:m ~m r.Coding.Scheme.trace)

let prop_potential_lemma_4_2 =
  QCheck.Test.make ~name:"lemma 4.2 on random noisy runs" ~count:10
    QCheck.(int_bound 10_000)
    (fun seed ->
      let adv = Netsim.Adversary.iid (Util.Rng.create seed) ~rate:0.0008 in
      let r, m = trace_of adv (seed + 1) in
      Coding.Potential.check_amortized ~k:m ~m r.Coding.Scheme.trace)

(* ---------- attacks ---------- *)

(* The §6.1 collision hunter on one edge, built as every attack is: a
   one-family candidate. *)
let hunter ~graph ~edge ~depth ~rate_denom =
  Coding.Attacks.instantiate ~graph
    {
      Coding.Attacks.default_candidate with
      family = Coding.Attacks.Hunter;
      edges = [ edge ];
      depth;
      rate_denom;
    }

(* A broad attack family on every edge of [attack_run]'s cycle. *)
let family f ~rate_denom =
  (Coding.Attacks.instantiate ~graph:(Topology.Graph.cycle 6)
     { Coding.Attacks.default_candidate with family = f; rate_denom })
    .Coding.Attacks.adversary

let attack_run ?(params_of = Coding.Params.algorithm_1) adv seed =
  let g = Topology.Graph.cycle 6 in
  let pi = Protocol.Protocols.random_chatter g ~rounds:150 ~density:0.5 ~seed:2 in
  Coding.Scheme.run ~rng:(Util.Rng.create seed) (params_of g) pi adv

let test_flag_forger_within_budget () =
  let r = attack_run (family Coding.Attacks.Flag_forge ~rate_denom:1500) 20 in
  Alcotest.(check bool) "survives flag forging within budget" true r.Coding.Scheme.success;
  Alcotest.(check bool) "budget respected" true (r.Coding.Scheme.noise_fraction <= 1. /. 1500. +. 0.001)

let test_rewind_spoofer_within_budget () =
  let r = attack_run (family Coding.Attacks.Rewind_spoof ~rate_denom:1500) 21 in
  Alcotest.(check bool) "survives rewind spoofing within budget" true r.Coding.Scheme.success;
  Alcotest.(check bool) "spoofs caused rework" true (r.Coding.Scheme.chunks_rewound > 0)

let test_rewind_spoofer_kills_at_high_budget () =
  let r = attack_run (family Coding.Attacks.Rewind_spoof ~rate_denom:50) 22 in
  Alcotest.(check bool) "unbounded spoofing wins" false r.Coding.Scheme.success

let test_hunter_respects_budget () =
  let g = Topology.Graph.cycle 6 in
  let pi = Protocol.Protocols.random_chatter g ~rounds:200 ~density:0.5 ~seed:2 in
  let { Coding.Attacks.adversary; spy_hook; stats } =
    hunter ~graph:g ~edge:0 ~depth:3 ~rate_denom:400
  in
  let r =
    Coding.Scheme.run ~config:(Coding.Scheme.Config.make ?spy_hook ()) ~rng:(Util.Rng.create 23)
      (Coding.Params.algorithm_1 g) pi adversary
  in
  Alcotest.(check bool) "noise fraction within budget" true
    (r.Coding.Scheme.noise_fraction <= 1. /. 400. +. 0.001);
  Alcotest.(check bool) "spent counts committed corruptions" true
    (stats.Coding.Attacks.corruptions_spent >= r.Coding.Scheme.corruptions - 2)

let test_hunter_hits_are_invisible () =
  (* The defining property: a hit means the next consistency check sees
     matching hashes despite diverging transcripts.  Detectable in the
     aggregate: hits > 0 while the scheme needed extra iterations. *)
  let g = Topology.Graph.cycle 6 in
  let pi = Protocol.Protocols.random_chatter g ~rounds:250 ~density:0.5 ~seed:2 in
  let { Coding.Attacks.adversary; spy_hook; stats } =
    hunter ~graph:g ~edge:0 ~depth:4 ~rate_denom:300
  in
  let r =
    Coding.Scheme.run ~config:(Coding.Scheme.Config.make ?spy_hook ()) ~rng:(Util.Rng.create 24)
      (Coding.Params.algorithm_1 g) pi adversary
  in
  Alcotest.(check bool) "hunter found hits vs tau=6" true (stats.Coding.Attacks.hits > 0);
  Alcotest.(check bool) "hidden corruptions delayed the run" true
    (r.Coding.Scheme.iterations_run > r.Coding.Scheme.chunks_total)

let test_hunter_blind_against_long_hashes () =
  let g = Topology.Graph.cycle 6 in
  let pi = Protocol.Protocols.random_chatter g ~rounds:150 ~density:0.5 ~seed:2 in
  let { Coding.Attacks.adversary; spy_hook; stats } =
    hunter ~graph:g ~edge:0 ~depth:3 ~rate_denom:300
  in
  let r =
    Coding.Scheme.run ~config:(Coding.Scheme.Config.make ?spy_hook ()) ~rng:(Util.Rng.create 25)
      (Coding.Params.algorithm_1 ~tau:20 g) pi adversary
  in
  Alcotest.(check bool) "success" true r.Coding.Scheme.success;
  (* 3^3 - 1 = 26 candidates against 2^-20 per-candidate odds: no hit. *)
  Alcotest.(check int) "no hits at tau=20" 0 stats.Coding.Attacks.hits

let test_hunter_rejects_bad_depth () =
  Alcotest.check_raises "depth 0"
    (Invalid_argument "Attacks.instantiate: depth in 1..8 (got 0)")
    (fun () -> ignore (hunter ~graph:(Topology.Graph.cycle 4) ~edge:0 ~depth:0 ~rate_denom:100))

(* ---------- combinators ---------- *)

let test_sequence_outputs () =
  let g = Topology.Graph.cycle 5 in
  let p = Protocol.Protocols.random_chatter g ~rounds:40 ~density:0.5 ~seed:61 in
  let q = Protocol.Protocols.random_chatter g ~rounds:60 ~density:0.3 ~seed:62 in
  let seq = Protocol.Combinators.sequence p q in
  for r = 0 to seq.Protocol.Pi.rounds - 1 do
    let r1 = p.Protocol.Pi.rounds in
    Alcotest.(check bool) "schedules concatenate" true
      (Protocol.Pi.sends_at seq r
      = if r < r1 then Protocol.Pi.sends_at p r else Protocol.Pi.sends_at q (r - r1))
  done;
  Alcotest.(check int) "rounds add" (p.Protocol.Pi.rounds + q.Protocol.Pi.rounds)
    seq.Protocol.Pi.rounds;
  Alcotest.(check int) "cc adds" (Protocol.Pi.cc p + Protocol.Pi.cc q) (Protocol.Pi.cc seq);
  let inputs = Array.init 5 (fun i -> i * 7) in
  let op = Protocol.Pi.run_noiseless p ~inputs and oq = Protocol.Pi.run_noiseless q ~inputs in
  let expected = Array.init 5 (fun i -> Protocol.Combinators.combine_outputs op.(i) oq.(i)) in
  Alcotest.(check bool) "outputs combine per party" true
    (Protocol.Pi.run_noiseless seq ~inputs = expected)

let test_sequence_rejects_mismatched_graphs () =
  let p = Protocol.Protocols.ring_sum ~n:4 ~bits:4 in
  let q = Protocol.Protocols.ring_sum ~n:5 ~bits:4 in
  match Protocol.Combinators.sequence p q with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument"

let test_repeat_coded_under_noise () =
  let g = Topology.Graph.cycle 5 in
  let p = Protocol.Protocols.random_chatter g ~rounds:40 ~density:0.5 ~seed:63 in
  let long = Protocol.Combinators.repeat 3 p in
  Alcotest.(check int) "3x cc" (3 * Protocol.Pi.cc p) (Protocol.Pi.cc long);
  let r =
    Coding.Scheme.run ~rng:(Util.Rng.create 64) (Coding.Params.algorithm_1 g) long
      (Netsim.Adversary.iid (Util.Rng.create 65) ~rate:0.0005)
  in
  Alcotest.(check bool) "coded repeat succeeds" true r.Coding.Scheme.success

(* ---------- calibrate ---------- *)

let test_calibrate_sweep_monotone_ends () =
  let g = Topology.Graph.cycle 5 in
  let pi = Protocol.Protocols.random_chatter g ~rounds:80 ~density:0.5 ~seed:66 in
  let points =
    Coding.Calibrate.sweep ~trials:4 ~rng_seed:67 ~rates:[ 0.; 0.02 ]
      (Coding.Params.algorithm_1 g) pi
  in
  match points with
  | [ clean; noisy ] ->
      Alcotest.(check int) "clean all pass" 4 clean.Coding.Calibrate.successes;
      Alcotest.(check int) "far above threshold all fail" 0 noisy.Coding.Calibrate.successes;
      Alcotest.(check bool) "fractions measured" true (noisy.Coding.Calibrate.mean_fraction > 0.)
  | _ -> Alcotest.fail "two points expected"

let test_calibrate_threshold_sane () =
  let g = Topology.Graph.cycle 5 in
  let pi = Protocol.Protocols.random_chatter g ~rounds:80 ~density:0.5 ~seed:68 in
  let eps = Coding.Calibrate.threshold ~trials:3 ~steps:5 ~rng_seed:69 (Coding.Params.algorithm_1 g) pi in
  Alcotest.(check bool) (Printf.sprintf "threshold in (0, 0.05) (got %f)" eps) true
    (eps > 0. && eps < 0.05)

(* ---------- sensitivity oracle (the hunter's foundation) ---------- *)

let test_prefix_bit_sensitivity_is_hash_delta () =
  (* h(x xor e_p) = h(x) xor sensitivity(p): the GF(2)-linearity the
     hunter exploits, checked directly against the hash. *)
  let seeds =
    Coding.Seeds.make ~stream:(Hashing.Seed_stream.uniform ~key:77L) ~tau:14 ~wmax:32 ~slot:0
      ~slots:1
  in
  let r = Util.Rng.create 26 in
  for _ = 1 to 30 do
    let bits = 64 + Util.Rng.int r 900 in
    let x = Util.Bitvec.create () in
    for _ = 1 to bits do
      Util.Bitvec.push x (Util.Rng.bool r)
    done;
    let pos = Util.Rng.int r bits in
    let y = Util.Bitvec.copy x in
    Util.Bitvec.truncate y 0;
    for i = 0 to bits - 1 do
      Util.Bitvec.push y (if i = pos then not (Util.Bitvec.get x i) else Util.Bitvec.get x i)
    done;
    let iter = Util.Rng.int r 5 and field = Util.Rng.int r 2 in
    let hx = Coding.Seeds.hash_prefix seeds ~iter ~field x ~bits in
    let hy = Coding.Seeds.hash_prefix seeds ~iter ~field y ~bits in
    let sens = Coding.Seeds.prefix_bit_sensitivity seeds ~iter ~field ~total_bits:bits ~pos in
    Alcotest.(check int) "h(x xor e_p) = h(x) xor sens(p)" (hx lxor sens) hy
  done

(* ---------- machine snapshots ---------- *)

type call = Send of int * int * bool | Recv of int * int * bool

(* Run rounds [lo, hi) of [pi] over [machines], flipping a delivered bit
   whenever [flip ()], and log every call (newest first). *)
let drive pi machines logs ~lo ~hi ~flip =
  for round = lo to hi - 1 do
    let sent =
      List.map
        (fun (u, v) ->
          let b = machines.(u).Protocol.Pi.send ~round ~dst:v in
          logs.(u) <- Send (round, v, b) :: logs.(u);
          (u, v, b))
        (Protocol.Pi.sends_at pi round)
    in
    List.iter
      (fun (u, v, b) ->
        let b = b <> flip () in
        machines.(v).Protocol.Pi.recv ~round ~src:u b;
        logs.(v) <- Recv (round, u, b) :: logs.(v))
      sent
  done

(* A fresh spawn given the calls of [log] sends what the log recorded
   and ends on [output]. *)
let replays pi ~party ~input log output =
  let m = pi.Protocol.Pi.spawn ~party ~input in
  List.for_all
    (function
      | Send (round, dst, b) -> m.Protocol.Pi.send ~round ~dst = b
      | Recv (round, src, b) ->
          m.Protocol.Pi.recv ~round ~src b;
          true)
    (List.rev log)
  && m.Protocol.Pi.output () = output

(* Every machine constructor: the five protocols with their own machines,
   the digest machine (line_flow, random_chatter) and both wrappers. *)
let snapshot_protocols g r =
  let open Protocol in
  let chatter = Protocols.random_chatter g ~rounds:40 ~density:0.5 ~seed:(Util.Rng.int r 1000) in
  [
    Protocols.ring_sum ~n:5 ~bits:4;
    Protocols.line_flow ~n:5 ~phases:3 ~chat:4;
    Protocols.broadcast_tree g ~bits:5;
    Protocols.pairwise_ip g ~bits:6;
    Protocols.gossip_max g ~bits:6;
    Protocols.convergecast_sum g ~bits:5;
    chatter;
    Combinators.sequence (Protocols.gossip_max g ~bits:4) chatter;
    Fully_utilized.of_pi (Protocols.convergecast_sum g ~bits:5);
  ]

let prop_snapshot_independent =
  QCheck.Test.make ~name:"snapshot is independent and equals a fresh replay" ~count:25
    QCheck.(pair small_nat small_nat)
    (fun (a, b) ->
      let r = Util.Rng.create ((a * 7919) + b) in
      let g = Topology.Graph.random_connected r ~n:(4 + (a mod 5)) ~extra_edges:(b mod 4) in
      List.for_all
        (fun pi ->
          let n = Topology.Graph.n pi.Protocol.Pi.graph in
          let inputs = Array.init n (fun _ -> Util.Rng.int r 1024) in
          let flip () = Util.Rng.int r 6 = 0 in
          let machines =
            Array.init n (fun party -> pi.Protocol.Pi.spawn ~party ~input:inputs.(party))
          in
          let logs = Array.make n [] in
          let split = Util.Rng.int r (pi.Protocol.Pi.rounds + 1) in
          drive pi machines logs ~lo:0 ~hi:split ~flip;
          let copies = Array.map (fun m -> m.Protocol.Pi.snapshot ()) machines in
          let copy_logs = Array.copy logs in
          (* The copies live their own noisy future first; the originals,
             run on afterwards through another, must not notice. *)
          drive pi copies copy_logs ~lo:split ~hi:pi.Protocol.Pi.rounds ~flip;
          let copy_out = Array.map (fun m -> m.Protocol.Pi.output ()) copies in
          drive pi machines logs ~lo:split ~hi:pi.Protocol.Pi.rounds ~flip;
          let out = Array.map (fun m -> m.Protocol.Pi.output ()) machines in
          List.for_all
            (fun p ->
              replays pi ~party:p ~input:inputs.(p) logs.(p) out.(p)
              && replays pi ~party:p ~input:inputs.(p) copy_logs.(p) copy_out.(p))
            (List.init n Fun.id))
        (snapshot_protocols g r))

let () =
  Alcotest.run "extensions"
    [
      ( "protocols",
        [
          Alcotest.test_case "gossip max" `Quick test_gossip_max_correct;
          Alcotest.test_case "convergecast sum" `Quick test_convergecast_sum_correct;
          Alcotest.test_case "gossip max coded+noise" `Quick test_gossip_max_coded_under_noise;
          QCheck_alcotest.to_alcotest prop_snapshot_independent;
        ] );
      ( "fully utilized",
        [
          Alcotest.test_case "outputs preserved" `Quick test_fully_utilized_same_outputs;
          Alcotest.test_case "cc accounting" `Quick test_fully_utilized_cc;
          Alcotest.test_case "dense is cheap" `Quick test_fully_utilized_of_dense_is_cheap;
        ] );
      ( "potential",
        [
          Alcotest.test_case "rises noiseless (exactly K)" `Quick test_potential_rises_noiseless;
          Alcotest.test_case "rises with burst" `Quick test_potential_rises_with_burst;
          Alcotest.test_case "rises with iid" `Quick test_potential_rises_with_iid;
          QCheck_alcotest.to_alcotest prop_potential_lemma_4_2;
        ] );
      ( "attacks",
        [
          Alcotest.test_case "flag forger within budget" `Quick test_flag_forger_within_budget;
          Alcotest.test_case "rewind spoofer within budget" `Quick
            test_rewind_spoofer_within_budget;
          Alcotest.test_case "rewind spoofer at high budget" `Quick
            test_rewind_spoofer_kills_at_high_budget;
          Alcotest.test_case "hunter respects budget" `Quick test_hunter_respects_budget;
          Alcotest.test_case "hunter hits invisible" `Quick test_hunter_hits_are_invisible;
          Alcotest.test_case "hunter blind vs long hashes" `Quick
            test_hunter_blind_against_long_hashes;
          Alcotest.test_case "hunter rejects bad depth" `Quick test_hunter_rejects_bad_depth;
        ] );
      ( "combinators",
        [
          Alcotest.test_case "sequence outputs" `Quick test_sequence_outputs;
          Alcotest.test_case "sequence rejects mismatch" `Quick
            test_sequence_rejects_mismatched_graphs;
          Alcotest.test_case "repeat coded under noise" `Quick test_repeat_coded_under_noise;
        ] );
      ( "calibrate",
        [
          Alcotest.test_case "sweep endpoints" `Quick test_calibrate_sweep_monotone_ends;
          Alcotest.test_case "threshold sane" `Quick test_calibrate_threshold_sane;
        ] );
      ( "sensitivity",
        [ Alcotest.test_case "hash delta oracle" `Quick test_prefix_bit_sensitivity_is_hash_delta ]
      );
    ]
