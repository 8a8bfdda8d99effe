(* Quickstart: five parties on a ring compute the sum of their inputs
   over a channel that inserts, deletes and substitutes bits, using
   Algorithm 1 (shared randomness, oblivious noise).

   Run with:  dune exec examples/quickstart.exe *)

let () =
  (* 1. A network: the 5-cycle.  Each edge carries one bit per round per
        direction. *)
  let graph = Topology.Graph.cycle 5 in

  (* 2. A noiseless protocol Π with a fixed speaking order: a 12-bit
        token circles the ring twice, accumulating the sum of the
        inputs. *)
  let pi = Protocol.Protocols.ring_sum ~n:5 ~bits:12 in
  let inputs = [| 1034; 2; 777; 1500; 99 |] in
  let expected = Array.fold_left ( + ) 0 inputs land 0xFFF in

  (* 3. An adversary: oblivious insertion/deletion/substitution noise,
        each channel slot corrupted with probability 1/1000. *)
  let adversary = Netsim.Adversary.iid (Util.Rng.create 2024) ~rate:0.001 in

  (* 4. Run the coding scheme. *)
  let params = Coding.Params.algorithm_1 graph in
  let config = Coding.Scheme.Config.make ~inputs () in
  let result = Coding.Scheme.run ~config ~rng:(Util.Rng.create 7) params pi adversary in

  Format.printf "Quickstart: %s over a noisy 5-cycle@." params.Coding.Params.name;
  Format.printf "  expected sum         : %d@." expected;
  Format.printf "  party outputs        : %s@."
    (String.concat ", " (Array.to_list (Array.map string_of_int result.Coding.Scheme.outputs)));
  Format.printf "  success              : %b@." result.Coding.Scheme.success;
  Format.printf "  CC(Pi) / coded CC    : %d / %d bits (blowup %.1fx)@."
    result.Coding.Scheme.cc_pi result.Coding.Scheme.cc result.Coding.Scheme.rate_blowup;
  Format.printf "  corruptions suffered : %d (%.4f%% of coded traffic)@."
    result.Coding.Scheme.corruptions
    (100. *. result.Coding.Scheme.noise_fraction);

  (* 5. For contrast: one single targeted corruption against both the
        unprotected protocol and the coded one. *)
  let u, v = List.hd (Protocol.Pi.sends_at pi 0) in
  let one_error () =
    Netsim.Adversary.single ~round:0 ~dir:(Topology.Graph.dir_id graph ~src:u ~dst:v) ~addend:1
  in
  let bare = Coding.Baseline.uncoded ~inputs ~rng:(Util.Rng.create 7) pi (one_error ()) in
  let coded = Coding.Scheme.run ~config ~rng:(Util.Rng.create 7) params pi (one_error ()) in
  Format.printf "  1 corruption, uncoded: success=%b (outputs %s)@." bare.Coding.Baseline.success
    (String.concat ", " (Array.to_list (Array.map string_of_int bare.Coding.Baseline.outputs)));
  Format.printf "  1 corruption, coded  : success=%b@." coded.Coding.Scheme.success;
  if not (result.Coding.Scheme.success && coded.Coding.Scheme.success) then exit 1
