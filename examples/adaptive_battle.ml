(* Algorithm B against the paper's non-oblivious adversary (§6.1).

   A non-oblivious adversary knows the parties' hash seeds in advance.
   Before corrupting a chunk it can therefore *search* for a corruption
   whose two diverging transcripts hash to the same value in the next
   consistency check — an invisible error.  With the constant-length
   hashes of Algorithm 1 such corruptions exist in almost every chunk;
   Algorithm B's Θ(log m)-bit hashes make them (1/poly m)-rare, which is
   precisely why Theorem 1.2 pays a log m in chunk size to buy log m
   hash bits.

   This example runs the collision-hunter attack (Coding.Attacks)
   against both schemes on the same workload and prints the carnage.

   Run with:  dune exec examples/adaptive_battle.exe *)

let battle name params pi seed =
  let graph = pi.Protocol.Pi.graph in
  let { Coding.Attacks.adversary; spy_hook; stats } =
    Coding.Attacks.instantiate ~graph
      {
        Coding.Attacks.default_candidate with
        family = Coding.Attacks.Hunter;
        edges = [ 0 ];
        depth = 4;
        rate_denom = 300;
      }
  in
  let result =
    Coding.Scheme.run
      ~config:(Coding.Scheme.Config.make ?spy_hook ())
      ~rng:(Util.Rng.create seed) params pi adversary
  in
  Format.printf "  %-34s tau=%-3d %-9b %7d %6d %9.5f%% %8.1fx@." name params.Coding.Params.tau
    result.Coding.Scheme.success stats.Coding.Attacks.attempts stats.Coding.Attacks.hits
    (100. *. result.Coding.Scheme.noise_fraction)
    result.Coding.Scheme.rate_blowup

let () =
  let graph = Topology.Graph.cycle 8 in
  let pi = Protocol.Protocols.random_chatter graph ~rounds:400 ~density:0.5 ~seed:3 in
  Format.printf
    "Seed-aware hash-collision hunter on one link of an 8-cycle (m = %d, CC(Pi) = %d)@.@."
    (Topology.Graph.m graph) (Protocol.Pi.cc pi);
  Format.printf "  %-34s %-7s %-9s %7s %6s %10s %9s@." "scheme" "" "success" "chunks" "hidden"
    "noise" "blowup";
  battle "Algorithm 1 (constant hashes)" (Coding.Params.algorithm_1 graph) pi 11;
  battle "Algorithm B (log m hashes)" (Coding.Params.algorithm_b graph) pi 12;
  battle "Algorithm 1, tau = 12 (ablation)" (Coding.Params.algorithm_1 ~tau:12 graph) pi 13;
  Format.printf
    "@.Algorithm 1 is only guaranteed against *oblivious* noise: the hunter@.";
  Format.printf
    "hides corruptions behind hash collisions at a vanishing noise rate.@.";
  Format.printf
    "Algorithm B's longer hashes (and Algorithm 1 retrofitted with them)@.";
  Format.printf "leave the hunter with nothing to find.@."
