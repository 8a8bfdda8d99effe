(* Tests for the attack-space search engine (lib/advsearch): scenario
   serialization round-trips, byte-identical replay of parsed vs
   in-memory scenarios at several job counts, search determinism in the
   master key, the per-trial stats aggregation contract of
   Attacks.instantiate, frontier Pareto-ness, candidate validation, and
   the checked-in regression scenarios under scenarios/. *)

let graph5 = Topology.Graph.clique 5

let sample_candidate =
  {
    Coding.Attacks.family = Coding.Attacks.Hunter;
    partner = Some Coding.Attacks.Burst;
    edges = [ 0; 3; 7 ];
    window = Some (2, 9);
    burst_start = 40;
    burst_len = 25;
    rate_denom = 450;
    depth = 5;
  }

let sample_scenario =
  {
    Advsearch.Scenario.version = Advsearch.Scenario.version;
    name = "unit:sample";
    algorithm = "1";
    topology = "clique:5";
    rounds = 40;
    key = "unit:sample:key";
    trials = 2;
    expected = None;
    candidate = { sample_candidate with edges = [ 0; 3 ] };
  }

(* ---------- serialization ---------- *)

let test_scenario_roundtrip () =
  let json = Advsearch.Scenario.to_json sample_scenario in
  match Advsearch.Scenario.parse json with
  | Error e -> Alcotest.failf "round-trip parse failed: %s" e
  | Ok sc ->
      Alcotest.(check bool) "record survives JSON round-trip" true (sc = sample_scenario);
      (* And the defaulted/None fields too. *)
      let plain =
        {
          sample_scenario with
          Advsearch.Scenario.candidate = Coding.Attacks.default_candidate;
          expected = Some "completed:ok,completed:ok";
        }
      in
      (match Advsearch.Scenario.parse (Advsearch.Scenario.to_json plain) with
      | Error e -> Alcotest.failf "round-trip (defaults) failed: %s" e
      | Ok sc2 -> Alcotest.(check bool) "defaults survive" true (sc2 = plain))

(* Replace the first occurrence of [sub] in [s] — enough to corrupt one
   field of a serialized scenario. *)
let replace_once s ~sub ~by =
  let n = String.length s and m = String.length sub in
  let rec find i =
    if i + m > n then None else if String.sub s i m = sub then Some i else find (i + 1)
  in
  match find 0 with
  | None -> Alcotest.failf "substring %S not found" sub
  | Some i -> String.sub s 0 i ^ by ^ String.sub s (i + m) (n - i - m)

let test_scenario_parse_errors () =
  let bad json =
    match Advsearch.Scenario.parse json with Error _ -> true | Ok _ -> false
  in
  Alcotest.(check bool) "not JSON" true (bad "nonsense");
  Alcotest.(check bool) "missing fields" true (bad "{\"version\": 1}");
  Alcotest.(check bool) "wrong version" true
    (bad
       (replace_once (Advsearch.Scenario.to_json sample_scenario) ~sub:"\"version\": 1"
          ~by:"\"version\": 99"));
  Alcotest.(check bool) "unknown family" true
    (bad
       (replace_once (Advsearch.Scenario.to_json sample_scenario) ~sub:"\"hunter\""
          ~by:"\"warlock\""))

(* ---------- replay determinism ---------- *)

let test_replay_byte_identical () =
  (* The parsed scenario must replay identically to the in-memory
     record at any job count. *)
  let parsed =
    match Advsearch.Scenario.parse (Advsearch.Scenario.to_json sample_scenario) with
    | Ok sc -> sc
    | Error e -> Alcotest.failf "parse failed: %s" e
  in
  let r_mem = Advsearch.Scenario.replay ~jobs:1 sample_scenario in
  let r_parsed = Advsearch.Scenario.replay ~jobs:1 parsed in
  let r_mem4 = Advsearch.Scenario.replay ~jobs:4 sample_scenario in
  Alcotest.(check int) "trial count" sample_scenario.Advsearch.Scenario.trials
    (List.length r_mem);
  Alcotest.(check bool) "parsed == in-memory" true (r_mem = r_parsed);
  Alcotest.(check bool) "jobs=1 == jobs=4" true (r_mem = r_mem4)

let test_traced_trial_replays_identically () =
  (* [mic run --attack FILE --postmortem] diagnoses trial 0 through
     [run_trial ~sink]: the sink must record the run without changing it. *)
  let sink = Trace.Sink.create () in
  let traced = Advsearch.Scenario.run_trial ~sink sample_scenario 0 in
  Alcotest.(check bool) "sink recorded the run" true (Trace.Sink.events sink <> []);
  Alcotest.(check bool) "traced == untraced" true
    (traced = Advsearch.Scenario.run_trial sample_scenario 0)

let test_pin_and_check () =
  let pinned = Advsearch.Scenario.pin_expected sample_scenario in
  Alcotest.(check bool) "expected pinned" true
    (pinned.Advsearch.Scenario.expected <> None);
  (match Advsearch.Scenario.check ~jobs:4 pinned with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "pinned scenario must re-check: %s" e);
  let broken = { pinned with Advsearch.Scenario.expected = Some "aborted,aborted" } in
  match Advsearch.Scenario.check broken with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "wrong pinned classes must fail the check"

(* ---------- search determinism ---------- *)

let small_cfg key =
  {
    (Advsearch.Search.default_config ~key) with
    Advsearch.Search.generations = 2;
    population = 3;
    trials = 2;
  }

let test_search_deterministic () =
  let env () = Advsearch.Search.env ~algorithm:"1" ~topology:"clique:5" ~rounds:40 in
  let t1 = Advsearch.Search.run (small_cfg "unit:search") (env ()) in
  let t2 = Advsearch.Search.run (small_cfg "unit:search") (env ()) in
  let t4 =
    Advsearch.Search.run { (small_cfg "unit:search") with Advsearch.Search.jobs = 4 } (env ())
  in
  let j = Advsearch.Search.to_json in
  Alcotest.(check string) "same key, same search" (j t1) (j t2);
  Alcotest.(check string) "jobs=1 == jobs=4" (j t1) (j t4);
  let other = Advsearch.Search.run (small_cfg "unit:search:other") (env ()) in
  Alcotest.(check bool) "different key explores differently" true (j t1 <> j other);
  Alcotest.(check int) "budget spent" (2 * 3) (List.length t1.Advsearch.Search.evals)

let test_search_eval_replays_as_scenario () =
  (* An eval's scenario replays the search's own trials: the classes the
     search recorded are the classes the scenario reproduces. *)
  let env = Advsearch.Search.env ~algorithm:"1" ~topology:"clique:5" ~rounds:40 in
  let t = Advsearch.Search.run (small_cfg "unit:pkg") env in
  List.iter
    (fun (e : Advsearch.Search.eval) ->
      let sc = Advsearch.Search.scenario_of_eval ~name:"unit:pkg" env e in
      let classes =
        Advsearch.Scenario.classes (Advsearch.Scenario.replay ~jobs:1 sc)
      in
      Alcotest.(check string)
        (Printf.sprintf "scenario replays eval %s" e.Advsearch.Search.key)
        e.Advsearch.Search.classes classes)
    [ t.Advsearch.Search.best; List.hd t.Advsearch.Search.evals ]

let test_frontier_pareto () =
  let env = Advsearch.Search.env ~algorithm:"1" ~topology:"clique:5" ~rounds:40 in
  let t = Advsearch.Search.run (small_cfg "unit:front") env in
  let open Advsearch.Search in
  Alcotest.(check bool) "frontier non-empty" true (t.frontier <> []);
  List.iter
    (fun f ->
      let dominated =
        List.exists
          (fun e ->
            let rd (x : eval) = x.candidate.Coding.Attacks.rate_denom in
            failure_prob e >= failure_prob f
            && rd e >= rd f
            && (failure_prob e > failure_prob f || rd e > rd f))
          t.evals
      in
      Alcotest.(check bool) "frontier point undominated" false dominated)
    t.frontier

(* ---------- stats aggregation (the multicore contract) ---------- *)

let test_hunter_stats_jobs_invariant () =
  (* Attacks.stats is aggregated per-trial through the pool's in-order
     merge (Runner.Accum pattern), so hunter counters must be identical
     at jobs=1 and jobs=4. *)
  let env = Advsearch.Search.env ~algorithm:"b" ~topology:"clique:5" ~rounds:40 in
  let cand =
    { Coding.Attacks.default_candidate with Coding.Attacks.family = Coding.Attacks.Hunter }
  in
  let eval ~jobs =
    Advsearch.Search.evaluate ~jobs ~trials:4 ~key:"unit:stats" ~generation:0 ~index:0 env
      cand
  in
  let e1 = eval ~jobs:1 and e4 = eval ~jobs:4 in
  Alcotest.(check string) "evals identical across job counts"
    (Advsearch.Search.eval_to_json e1)
    (Advsearch.Search.eval_to_json e4);
  Alcotest.(check bool) "hunter attempted collisions" true (e1.Advsearch.Search.hunter_hits >= 0)

(* ---------- fitness: a projection of the outcome ---------- *)

(* The reference is the sink read-back the search once scored with: the
   [phi.stall] total, and Σ max(0, K·(i₂ − i₁) − ΔΦ) / K over the [phi]
   gauges, in emission order, tagged with their iterations. *)
let sink_deficit ~k sink =
  let kf = float_of_int k in
  let gauges =
    List.filter_map
      (function Trace.Sink.Gauge { name = "phi"; iter; value; _ } -> Some (iter, value) | _ -> None)
      (Trace.Sink.events sink)
  in
  let rec go acc = function
    | (i1, phi1) :: ((i2, phi2) :: _ as rest) ->
        go (acc +. Float.max 0. ((kf *. float_of_int (i2 - i1)) -. (phi2 -. phi1))) rest
    | _ -> acc
  in
  go 0. gauges /. kf

(* Each family's baseline candidate (the adv bench's: whole graph, no
   window, budget 1/600), run once with the trace kept and a sink. *)
let test_fitness_matches_sink () =
  let graph = Advsearch.Scenario.graph_of_topology "clique:5" in
  let params = Advsearch.Scenario.params_of_algorithm "1" graph in
  let pi = Advsearch.Scenario.workload ~rounds:40 graph in
  let k = params.Coding.Params.k and m = Topology.Graph.m graph in
  let stalled = ref 0 in
  List.iter
    (fun family ->
      let { Coding.Attacks.adversary; spy_hook; stats } =
        Coding.Attacks.instantiate ~graph
          { Coding.Attacks.default_candidate with family; burst_len = 200; rate_denom = 600 }
      in
      let sink = Trace.Sink.create () in
      let config = Coding.Scheme.Config.make ~trace:true ~sink ?spy_hook () in
      let outcome =
        Coding.Scheme.run_outcome ~config ~rng:(Util.Rng.create 9) params pi adversary
      in
      let fit = Advsearch.Fitness.extract ~k ~m ~stats ~outcome in
      let name = Coding.Attacks.family_to_string family in
      Alcotest.(check int) (name ^ ": no events dropped") 0 (Trace.Sink.dropped sink);
      Alcotest.(check int) (name ^ ": phi_stalls = sink phi.stall total")
        (Trace.Sink.counter_total sink "phi.stall")
        fit.Advsearch.Fitness.phi_stalls;
      Alcotest.(check (float 0.)) (name ^ ": phi_deficit = sink deficit") (sink_deficit ~k sink)
        fit.Advsearch.Fitness.phi_deficit;
      stalled := !stalled + fit.Advsearch.Fitness.phi_stalls)
    Coding.Attacks.all_families;
  Alcotest.(check bool) (Printf.sprintf "some family stalls Φ (%d stalls)" !stalled) true (!stalled > 0)

(* ---------- candidate validation ---------- *)

let test_instantiate_validation () =
  let rejects c =
    match Coding.Attacks.instantiate ~graph:graph5 c with
    | exception Invalid_argument _ -> true
    | _ -> false
  in
  let d = Coding.Attacks.default_candidate in
  Alcotest.(check bool) "edge out of range" true
    (rejects { d with Coding.Attacks.edges = [ 99 ] });
  Alcotest.(check bool) "negative edge" true (rejects { d with Coding.Attacks.edges = [ -1 ] });
  Alcotest.(check bool) "zero rate_denom" true (rejects { d with Coding.Attacks.rate_denom = 0 });
  Alcotest.(check bool) "depth too deep" true (rejects { d with Coding.Attacks.depth = 9 });
  Alcotest.(check bool) "empty window" true (rejects { d with Coding.Attacks.window = Some (5, 5) });
  Alcotest.(check bool) "valid candidate accepted" false (rejects sample_candidate);
  (* Every family instantiates; only hunters carry a spy hook. *)
  List.iter
    (fun f ->
      let inst =
        Coding.Attacks.instantiate ~graph:graph5 { d with Coding.Attacks.family = f }
      in
      Alcotest.(check bool)
        (Coding.Attacks.family_to_string f ^ " spy hook iff hunter")
        (f = Coding.Attacks.Hunter)
        (inst.Coding.Attacks.spy_hook <> None))
    Coding.Attacks.all_families

(* ---------- observatory classification of the adv bench metrics ---------- *)

let test_adv_metric_classification () =
  Alcotest.(check bool) "frontier failure_prob is exact" true
    (Obsv.Observatory.classify "adv.sweep[adv:1:clique:5].frontier[x].failure_prob" = `Exact);
  Alcotest.(check bool) "beats flag is exact" true
    (Obsv.Observatory.classify "adv.sweep[adv:1:clique:5].beats_all_baselines" = `Exact);
  Alcotest.(check bool) "search wall is timed" true
    (Obsv.Observatory.classify "adv.search_walls[adv:1:clique:5].search_wall_s" = `Timed);
  Alcotest.(check bool) "jobs knob is ignored" true
    (Obsv.Observatory.classify "adv.jobs_compared[0]" = `Ignored)

let () =
  Alcotest.run "advsearch"
    [
      ( "scenario",
        [
          Alcotest.test_case "JSON round-trip" `Quick test_scenario_roundtrip;
          Alcotest.test_case "parse errors are total" `Quick test_scenario_parse_errors;
          Alcotest.test_case "replay byte-identical" `Quick test_replay_byte_identical;
          Alcotest.test_case "traced trial replays identically" `Quick
            test_traced_trial_replays_identically;
          Alcotest.test_case "pin + check" `Quick test_pin_and_check;
        ] );
      ( "search",
        [
          Alcotest.test_case "keyed determinism across jobs" `Quick test_search_deterministic;
          Alcotest.test_case "eval replays as scenario" `Quick test_search_eval_replays_as_scenario;
          Alcotest.test_case "frontier is Pareto" `Quick test_frontier_pareto;
          Alcotest.test_case "hunter stats jobs-invariant" `Quick test_hunter_stats_jobs_invariant;
          Alcotest.test_case "fitness = sink read-back" `Quick test_fitness_matches_sink;
        ] );
      ( "attacks",
        [
          Alcotest.test_case "instantiate validation" `Quick test_instantiate_validation;
          Alcotest.test_case "adv metric classification" `Quick test_adv_metric_classification;
        ] );
    ]
