(* E7 — hash-length ablation against the seed-aware adversary (§6.1).

   The §6 argument in one picture: the collision hunter can hide a
   corruption whenever some nonempty subset of its candidate single-bit
   changes has hash-sensitivity masks XOR-ing to zero — with ~3^depth
   candidates and τ-bit hashes that happens at rate ≈ 3^depth / 2^τ.
   Sweeping τ shows constant-length hashes (Algorithm 1's regime)
   collapsing and Θ(log m)-length hashes (Algorithm B's regime) holding,
   with the crossover right where the counting argument puts it. *)

let trials = 4

let run () =
  Exp_common.heading "E7  |  Hash-length ablation vs the hash-collision hunter (cycle, m = 8)";
  let g = Topology.Graph.cycle 8 in
  let pi = Exp_common.workload ~rounds:250 g in
  let depth = 4 in
  Format.printf "(hunter candidate space 3^%d - 1 = %d per chunk)@.@." depth
    (int_of_float (3. ** float_of_int depth) - 1);
  Format.printf "%4s %10s | %15s %8s %8s %12s@." "tau" "2^tau" "success [95%]" "chunks"
    "hidden" "hit rate";
  Format.printf "%s@." (String.make 68 '-');
  List.iter
    (fun tau ->
      (* The hunter's attempt/hit counters are per-trial state, returned
         through run_trials_aux and summed in trial order. *)
      let s, aux =
        Exp_common.run_trials_aux ~trials (fun t ->
            let { Coding.Attacks.adversary; spy_hook; stats } =
              Exp_common.attack ~graph:g ~edges:[ t mod Topology.Graph.m g ] ~depth
                ~rate_denom:300 Coding.Attacks.Hunter
            in
            let r =
              Coding.Scheme.run
                ~config:(Coding.Scheme.Config.make ?spy_hook ())
                ~rng:(Exp_common.trial_rng (Printf.sprintf "e7:tau%d" tau) t)
                (Coding.Params.algorithm_1 ~tau g) pi adversary
            in
            (r, (stats.Coding.Attacks.attempts, stats.Coding.Attacks.hits)))
      in
      let attempts, hits =
        List.fold_left
          (fun (a, h) -> function Some (da, dh) -> (a + da, h + dh) | None -> (a, h))
          (0, 0) aux
      in
      Format.printf "%4d %10d | %15s %8d %8d %11.1f%%@." tau (1 lsl tau)
        (Exp_common.success_cell s) attempts hits
        (100. *. float_of_int hits /. float_of_int (max 1 attempts)))
    [ 3; 4; 6; 8; 10; 12; 16 ];
  Format.printf "@.Hidden-corruption rate tracks 3^depth/2^tau; once tau clears the@.";
  Format.printf "candidate space (the Theta(log m) regime), the hunter goes blind@.";
  Format.printf "and the simulation survives.@."
