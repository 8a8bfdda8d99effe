(* E3 — Theorem 1.2: resilience against non-oblivious adversaries.

   Three adaptive attacks of increasing sophistication are thrown at
   Algorithm 1 (which only promises resilience to *oblivious* noise) and
   Algorithm B (built for non-oblivious noise):

     - link-target: corrupt everything on one link during simulation;
     - mp-blind:    corrupt the consistency-check traffic itself;
     - hash-hunter: the §6.1 attack — search the known seeds for
                    corruptions hidden behind hash collisions.

   Expected shape: the first two attacks pay full price per corruption
   and both schemes resist them at matching budgets; the hunter breaks
   Algorithm 1 at a vanishing noise fraction while Algorithm B's
   Θ(log m)-bit hashes leave it nothing to find. *)

let trials = 5

let run () =
  Exp_common.heading "E3  |  Theorem 1.2: adaptive (non-oblivious) attacks (cycle, m = 8)";
  let g = Topology.Graph.cycle 8 in
  let pi = Exp_common.workload g in
  Format.printf "%-14s %-28s %15s %7s %12s %9s@." "attack" "scheme" "success [95%]" "hidden"
    "noise frac" "blowup";
  Format.printf "%s@." (String.make 92 '-');
  (* Budgets are proportional to each scheme's contract: Algorithm 1 gets
     eps/m and Algorithm B gets eps/(m log m), same eps. *)
  let logm = Coding.Params.ceil_log2 (Topology.Graph.m g) in
  let schemes =
    [
      ("Algorithm 1 @ eps/m", "alg1", Coding.Params.algorithm_1 g, 2000);
      ("Algorithm B @ eps/(m log m)", "algB", Coding.Params.algorithm_b g, 2000 * logm);
    ]
  in
  (* 1. link-target *)
  List.iter
    (fun (name, kid, params, rate_denom) ->
      let s =
        Exp_common.run_trials ~trials (fun t ->
            Coding.Scheme.run
              ~rng:(Exp_common.trial_rng ("e3:link:" ^ kid) t)
              params pi
              (Netsim.Adversary.adaptive_link_target ~edge_dirs:[ 0; 1 ] ~rate_denom
                 ~phases:[ Netsim.Adversary.Simulation ]))
      in
      Format.printf "%-14s %-28s %15s %7s %12.5f %8.1fx@." "link-target" name
        (Exp_common.success_cell s) "-" (Exp_common.mean_fraction s) (Exp_common.mean_blowup s))
    schemes;
  (* 2. mp-blind *)
  List.iter
    (fun (name, kid, params, rate_denom) ->
      let s =
        Exp_common.run_trials ~trials (fun t ->
            Coding.Scheme.run
              ~rng:(Exp_common.trial_rng ("e3:mpblind:" ^ kid) t)
              params pi
              (Exp_common.attack ~graph:g ~rate_denom Coding.Attacks.Mp_blind)
                .Coding.Attacks.adversary)
      in
      Format.printf "%-14s %-28s %15s %7s %12.5f %8.1fx@." "mp-blind" name
        (Exp_common.success_cell s) "-" (Exp_common.mean_fraction s) (Exp_common.mean_blowup s))
    schemes;
  (* 2b. flag-forger and rewind-spoofer *)
  List.iter
    (fun (attack_name, akey, family) ->
      List.iter
        (fun (name, kid, params, rate_denom) ->
          let s =
            Exp_common.run_trials ~trials (fun t ->
                Coding.Scheme.run
                  ~rng:(Exp_common.trial_rng (Printf.sprintf "e3:%s:%s" akey kid) t)
                  params pi
                  (Exp_common.attack ~graph:g ~rate_denom family).Coding.Attacks.adversary)
          in
          Format.printf "%-14s %-28s %15s %7s %12.5f %8.1fx@." attack_name name
            (Exp_common.success_cell s) "-" (Exp_common.mean_fraction s)
            (Exp_common.mean_blowup s))
        schemes)
    [
      ("flag-forger", "forge", Coding.Attacks.Flag_forge);
      ("rewind-spoof", "spoof", Coding.Attacks.Rewind_spoof);
    ];
  (* 3. hash-hunter.  The hunter's hit counter is per-trial state, so it
     is returned through run_trials_aux and summed in trial order —
     accumulating into a closed-over ref would race across domains. *)
  let hunter_row label name key params rate_denom =
    let s, aux =
      Exp_common.run_trials_aux ~trials (fun t ->
          let inst =
            Exp_common.attack ~graph:g ~edges:[ t mod Topology.Graph.m g ] ~rate_denom
              Coding.Attacks.Hunter
          in
          let r =
            Coding.Scheme.run
              ~config:(Coding.Scheme.Config.make ?spy_hook:inst.Coding.Attacks.spy_hook ())
              ~rng:(Exp_common.trial_rng key t) params pi inst.Coding.Attacks.adversary
          in
          (r, inst.Coding.Attacks.stats.Coding.Attacks.hits))
    in
    let hits = List.fold_left (fun acc a -> acc + Option.value ~default:0 a) 0 aux in
    Format.printf "%-14s %-28s %15s %7d %12.5f %8.1fx@." label name (Exp_common.success_cell s)
      hits (Exp_common.mean_fraction s) (Exp_common.mean_blowup s)
  in
  List.iter
    (fun (name, kid, params, rate_denom) ->
      hunter_row "hash-hunter" name ("e3:hunter:" ^ kid) params rate_denom)
    schemes;
  (* 4. hash-hunter with a generous budget: the separation.  Algorithm 1
     has no defence once the hunter may strike often; Algorithm B's
     hashes stay unbreakable at any budget. *)
  List.iter
    (fun (name, kid, params) -> hunter_row "hunter (big)" name ("e3:hunterbig:" ^ kid) params 300)
    [
      ("Algorithm 1, budget cc/300", "alg1", Coding.Params.algorithm_1 g);
      ("Algorithm B, budget cc/300", "algB", Coding.Params.algorithm_b g);
    ];
  Format.printf "@.'hidden' = corruptions the hunter managed to hide behind hash collisions.@.";
  Format.printf "At contract budgets both schemes hold; given a larger budget the hunter@.";
  Format.printf "sinks Algorithm 1 (it was never promised against non-oblivious noise)@.";
  Format.printf "while Algorithm B's Theta(log m)-bit hashes leave it nothing to hide in.@."
