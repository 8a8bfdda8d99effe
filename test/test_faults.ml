(* Tests for the fault-injection engine: keyed plan determinism, the
   never-raise outcome contract of Scheme.run_outcome under every fault
   class, transcript corruption and the checked-in attack scenarios. *)

(* ---------- Plan: keyed determinism and window queries ---------- *)

let test_plan_keyed_determinism () =
  let specs = [ Faults.Plan.Transcript_rot { party = 1; at_iteration = 4 } ] in
  let p1 = Faults.Plan.make ~key:"det" specs in
  let p2 = Faults.Plan.make ~key:"det" specs in
  let p3 = Faults.Plan.make ~key:"other" specs in
  for c = 0 to 99 do
    Alcotest.(check int) "same key, same die"
      (Faults.Plan.choice p1 ~salt:3 ~coord:c ~bound:1000)
      (Faults.Plan.choice p2 ~salt:3 ~coord:c ~bound:1000)
  done;
  let differs =
    List.exists
      (fun c ->
        Faults.Plan.choice p1 ~salt:3 ~coord:c ~bound:1000
        <> Faults.Plan.choice p3 ~salt:3 ~coord:c ~bound:1000)
      (List.init 100 Fun.id)
  in
  Alcotest.(check bool) "different key, different schedule" true differs;
  (* The die stays in range. *)
  for c = 0 to 99 do
    let v = Faults.Plan.choice p1 ~salt:7 ~coord:c ~bound:5 in
    Alcotest.(check bool) "choice in [0, bound)" true (v >= 0 && v < 5)
  done

(* Every (salt, coord) pair draws its own word.  The die once indexed
   its stream by [salt * 0x3d0f2b + coord], so salt 1 at coord
   [c + 0x3d0f2b] drew exactly salt 2's word at [c]. *)
let test_plan_die_injective () =
  let p = Faults.Plan.make ~key:"die" [] in
  let draw ~salt ~coord = Faults.Plan.choice p ~salt ~coord ~bound:max_int in
  for c = 0 to 99 do
    Alcotest.(check bool)
      (Printf.sprintf "salt 1 at c + 0x3d0f2b vs salt 2 at c = %d" c)
      true
      (draw ~salt:1 ~coord:(c + 0x3d0f2b) <> draw ~salt:2 ~coord:c)
  done

let test_plan_crash_windows () =
  let p =
    Faults.Plan.make ~key:"w"
      [ Faults.Plan.Crash { party = 2; at_iteration = 3; recover_at = Some 6 } ]
  in
  let crashed i = Faults.Plan.crashed p ~party:2 ~iteration:i in
  Alcotest.(check bool) "alive before" false (crashed 2);
  Alcotest.(check bool) "down at start" true (crashed 3);
  Alcotest.(check bool) "down inside window" true (crashed 5);
  Alcotest.(check bool) "back up at recovery" false (crashed 6);
  Alcotest.(check bool) "rejoins exactly at recovery" true (Faults.Plan.rejoins p ~party:2 ~iteration:6);
  Alcotest.(check bool) "no rejoin before" false (Faults.Plan.rejoins p ~party:2 ~iteration:5);
  Alcotest.(check bool) "no rejoin after" false (Faults.Plan.rejoins p ~party:2 ~iteration:7);
  Alcotest.(check bool) "other parties untouched" false (Faults.Plan.crashed p ~party:0 ~iteration:4);
  (* Crash-stop: no recovery, down forever. *)
  let stop =
    Faults.Plan.make ~key:"w"
      [ Faults.Plan.Crash { party = 0; at_iteration = 1; recover_at = None } ]
  in
  Alcotest.(check bool) "crash-stop stays down" true
    (Faults.Plan.crashed stop ~party:0 ~iteration:1000);
  Alcotest.(check bool) "crash-stop never rejoins" false
    (List.exists (fun i -> Faults.Plan.rejoins stop ~party:0 ~iteration:i) (List.init 50 Fun.id))

let test_plan_network_hooks_compilation () =
  (* Scheme-layer-only plans compile to no network hooks (the transport
     keeps its zero-overhead path); network-layer specs compile to Some. *)
  let scheme_only =
    Faults.Plan.make ~key:"h"
      [ Faults.Plan.Crash { party = 0; at_iteration = 2; recover_at = None } ]
  in
  Alcotest.(check bool) "crash plan: no network hooks" true
    (Faults.Plan.network_hooks scheme_only = None);
  Alcotest.(check bool) "empty plan: no network hooks" true
    (Faults.Plan.network_hooks Faults.Plan.empty = None);
  let stall =
    Faults.Plan.make ~key:"h" [ Faults.Plan.Link_stall { edge = 0; from_round = 0; rounds = 5 } ]
  in
  Alcotest.(check bool) "stall plan: hooks" true (Faults.Plan.network_hooks stall <> None)

(* ---------- Network layer: stalls and overload through the hooks ---------- *)

let g6 = Topology.Graph.cycle 6

(* Round helper shaped like the old list API; these tests only care
   about the books, not the deliveries. *)
let round net ~sends =
  let act = Netsim.Network.active net in
  Netsim.Network.Active.begin_round act;
  List.iter
    (fun (src, dst, bit) ->
      Netsim.Network.Active.send act ~dir:(Topology.Graph.dir_id g6 ~src ~dst) bit)
    sends;
  Netsim.Network.commit net act

let test_network_stall_books_separately () =
  let plan =
    Faults.Plan.make ~key:"ns" [ Faults.Plan.Link_stall { edge = 0; from_round = 0; rounds = 10 } ]
  in
  let net = Netsim.Network.create g6 Netsim.Adversary.Silent in
  Netsim.Network.set_fault_hooks net (Faults.Plan.network_hooks plan);
  for _ = 1 to 10 do
    (round net ~sends:[ (0, 1, true); (1, 0, false) ])
  done;
  let s = Netsim.Network.stats net in
  Alcotest.(check int) "every edge-0 transmission stalled" 20 s.Netsim.Network.stalled;
  (* Stalls are a fault, not adversary noise: the budget books stay clean. *)
  Alcotest.(check int) "no adversary corruption booked" 0 (Netsim.Network.stats net).Netsim.Network.corruptions

let test_network_overload_injects () =
  let plan =
    Faults.Plan.make ~key:"no"
      [ Faults.Plan.Noise_overload { factor = 10.; from_round = 0; rounds = 200; rate = 0.05 } ]
  in
  let net = Netsim.Network.create g6 Netsim.Adversary.Silent in
  Netsim.Network.set_fault_hooks net (Faults.Plan.network_hooks plan);
  for _ = 1 to 200 do
    (round net ~sends:[ (0, 1, true); (3, 4, false) ])
  done;
  let s = Netsim.Network.stats net in
  Alcotest.(check bool)
    (Printf.sprintf "overload injected (%d)" s.Netsim.Network.injected)
    true
    (s.Netsim.Network.injected > 0);
  Alcotest.(check int) "injections are unbudgeted" 0 (Netsim.Network.stats net).Netsim.Network.corruptions

(* ---------- Scheme: outcome taxonomy under each fault class ---------- *)

let pi_small = Protocol.Protocols.random_chatter g6 ~rounds:40 ~density:0.5 ~seed:7
let params_small = Coding.Params.algorithm_1 g6

let run_with ?(seed = 11) ~key specs =
  let faults = Faults.Plan.make ~key specs in
  Coding.Scheme.run_outcome
    ~config:(Coding.Scheme.Config.make ~faults ())
    ~rng:(Util.Rng.create seed) params_small pi_small Netsim.Adversary.Silent

let diagnosis_exn o =
  match Faults.Outcome.diagnosis o with
  | Some d -> d
  | None -> Alcotest.fail (Printf.sprintf "expected diagnosis, got %s" (Faults.Outcome.label o))

let test_nominal_run_completes () =
  match run_with ~key:"nominal" [] with
  | Faults.Outcome.Completed r -> Alcotest.(check bool) "succeeds" true r.Coding.Scheme.success
  | o -> Alcotest.fail ("expected completed, got " ^ Faults.Outcome.label o)

let test_crash_stop_degrades () =
  let o =
    run_with ~key:"crash" [ Faults.Plan.Crash { party = 0; at_iteration = 2; recover_at = None } ]
  in
  Alcotest.(check string) "degraded" "degraded" (Faults.Outcome.label o);
  let d = diagnosis_exn o in
  Alcotest.(check bool) "crashed iterations counted" true
    (d.Faults.Outcome.crashed_iterations > 0);
  Alcotest.(check int) "no rejoin" 0 d.Faults.Outcome.rejoins;
  Alcotest.(check bool) "crash noted" true
    (List.exists (fun n -> n = "party 0 crashed at iteration 2") d.Faults.Outcome.notes)

let test_crash_recovery_rejoins () =
  let o =
    run_with ~key:"recover"
      [ Faults.Plan.Crash { party = 0; at_iteration = 2; recover_at = Some 5 } ]
  in
  let d = diagnosis_exn o in
  Alcotest.(check int) "one rejoin" 1 d.Faults.Outcome.rejoins;
  Alcotest.(check int) "three iterations down" 3 d.Faults.Outcome.crashed_iterations;
  Alcotest.(check bool) "run still produced a result" true
    (Faults.Outcome.result o <> None)

let test_overload_degrades_with_injections () =
  let o =
    run_with ~key:"overload"
      [
        Faults.Plan.Noise_overload
          { factor = 8.; from_round = 0; rounds = 1_000_000_000; rate = 0.01 };
      ]
  in
  let d = diagnosis_exn o in
  Alcotest.(check bool) "injections counted" true (d.Faults.Outcome.injected > 0)

let test_stall_degrades_with_stalled_slots () =
  let o =
    run_with ~key:"stall" [ Faults.Plan.Link_stall { edge = 0; from_round = 0; rounds = 2000 } ]
  in
  let d = diagnosis_exn o in
  Alcotest.(check bool) "stalled slots counted" true (d.Faults.Outcome.stalled_slots > 0)

let test_state_rot_degrades () =
  let o =
    run_with ~key:"rot"
      [
        Faults.Plan.Transcript_rot { party = 1; at_iteration = 2 };
        Faults.Plan.Seed_rot { party = 2; from_iteration = 1 };
      ]
  in
  let d = diagnosis_exn o in
  Alcotest.(check bool) "transcript rot applied" true (d.Faults.Outcome.transcript_rot > 0);
  Alcotest.(check bool) "seed rot applied" true (d.Faults.Outcome.seed_rot > 0)

let test_validation_still_raises () =
  (* Input validation is a caller bug, not a run fault: it raises before
     the never-raise region begins. *)
  Alcotest.check_raises "wrong input count"
    (Invalid_argument "Scheme.run: wrong input count") (fun () ->
      ignore
        (Coding.Scheme.run_outcome
           ~config:(Coding.Scheme.Config.make ~inputs:[| 1 |] ())
           ~rng:(Util.Rng.create 1) params_small pi_small Netsim.Adversary.Silent))

(* ---------- Determinism of the full faulted execution ---------- *)

let test_run_outcome_deterministic () =
  let chaos =
    [
      Faults.Plan.Crash { party = 0; at_iteration = 2; recover_at = Some 5 };
      Faults.Plan.Link_stall { edge = 0; from_round = 50; rounds = 100 };
      Faults.Plan.Noise_overload { factor = 4.; from_round = 0; rounds = 10_000; rate = 0.005 };
      Faults.Plan.Transcript_rot { party = 1; at_iteration = 3 };
      Faults.Plan.Seed_rot { party = 2; from_iteration = 2 };
    ]
  in
  let go () = run_with ~key:"chaos" ~seed:13 chaos in
  let a = go () and b = go () in
  Alcotest.(check string) "same label" (Faults.Outcome.label a) (Faults.Outcome.label b);
  (match (Faults.Outcome.result a, Faults.Outcome.result b) with
  | Some ra, Some rb ->
      Alcotest.(check bool) "same success" ra.Coding.Scheme.success rb.Coding.Scheme.success;
      Alcotest.(check int) "same cc" ra.Coding.Scheme.cc rb.Coding.Scheme.cc;
      Alcotest.(check int) "same corruptions" ra.Coding.Scheme.corruptions
        rb.Coding.Scheme.corruptions
  | None, None -> ()
  | _ -> Alcotest.fail "one run produced a result, the other did not");
  match (Faults.Outcome.diagnosis a, Faults.Outcome.diagnosis b) with
  | Some da, Some db ->
      Alcotest.(check int) "same crashed iters" da.Faults.Outcome.crashed_iterations
        db.Faults.Outcome.crashed_iterations;
      Alcotest.(check int) "same stalls" da.Faults.Outcome.stalled_slots
        db.Faults.Outcome.stalled_slots;
      Alcotest.(check int) "same injections" da.Faults.Outcome.injected db.Faults.Outcome.injected;
      Alcotest.(check int) "same transcript rot" da.Faults.Outcome.transcript_rot
        db.Faults.Outcome.transcript_rot;
      Alcotest.(check int) "same seed rot" da.Faults.Outcome.seed_rot db.Faults.Outcome.seed_rot
  | None, None -> ()
  | _ -> Alcotest.fail "diagnosis presence differs"

(* ---------- Transcript corruption primitive ---------- *)

let test_transcript_corrupt_isolated () =
  let mk () =
    let t = Coding.Transcript.create () in
    for i = 0 to 3 do
      Coding.Transcript.push_chunk t
        ~events:(Array.init 5 (fun j -> if (i + j) mod 2 = 0 then 2 else 3))
        ~len:5
    done;
    t
  in
  (* Two transcripts built alike: rotting one leaves the other as built,
     and changes exactly the rotted symbol. *)
  let original = mk () and victim = mk () in
  let row t c =
    List.init (Coding.Transcript.event_count t c) (fun event ->
        Coding.Transcript.symbol t ~chunk:c ~event)
  in
  let stamps () = List.init 5 (Coding.Transcript.stamp victim) in
  let s0 = stamps () in
  Coding.Transcript.corrupt victim ~chunk:2 ~event:1;
  Alcotest.(check (list int)) "original chunk untouched" (row (mk ()) 2) (row original 2);
  Alcotest.(check (list int)) "victim flips the one symbol"
    (List.mapi (fun i s -> if i = 1 then 5 - s else s) (row original 2))
    (row victim 2);
  List.iter
    (fun c -> Alcotest.(check (list int)) "other chunks kept" (row original c) (row victim c))
    [ 1; 3; 4 ];
  Alcotest.(check bool) "stamp below kept" true (Coding.Transcript.stamp victim 1 = List.nth s0 1);
  Alcotest.(check bool) "stamps from the rotted chunk changed" true
    (List.for_all2 (fun a b -> a <> b) (List.filteri (fun i _ -> i >= 2) s0)
       (List.filteri (fun i _ -> i >= 2) (stamps ())));
  (* The rot is written into the serialization itself. *)
  Alcotest.(check int) "serialized length preserved"
    (Coding.Transcript.serialized_bits original)
    (Coding.Transcript.serialized_bits victim);
  Alcotest.(check bool) "serialized content differs" false
    (Util.Bitvec.equal (Coding.Transcript.serialized original) (Coding.Transcript.serialized victim))

(* ---------- discovered-attack regression scenarios ---------- *)

(* The checked-in worst cases from the adv bench search (one per
   algorithm, see bench/adv_scenarios.ml): each must parse, carry pinned
   outcome classes, and replay to exactly those classes at jobs=1 and
   jobs=4.  A deviation means scheme behaviour shifted under a known
   worst-case attack.  The scenarios are resolved next to the test
   executable (dune copies them there), not against the working
   directory. *)
let test_discovered_attack_scenarios () =
  let dir = Filename.concat (Filename.dirname Sys.executable_name) "scenarios" in
  Alcotest.(check bool) "scenarios/ present" true
    (Sys.file_exists dir && Sys.is_directory dir);
  let files =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.extension f = ".json")
    |> List.sort String.compare
  in
  Alcotest.(check bool) "one scenario per algorithm" true (List.length files >= 3);
  List.iter
    (fun f ->
      match Advsearch.Scenario.load ~path:(Filename.concat dir f) with
      | Error e -> Alcotest.failf "%s does not parse: %s" f e
      | Ok sc ->
          Alcotest.(check bool) (f ^ " pins expected classes") true
            (sc.Advsearch.Scenario.expected <> None);
          (match Advsearch.Scenario.check ~jobs:1 sc with
          | Ok _ -> ()
          | Error e -> Alcotest.failf "%s regressed (jobs=1): %s" f e);
          (match Advsearch.Scenario.check ~jobs:4 sc with
          | Ok _ -> ()
          | Error e -> Alcotest.failf "%s regressed (jobs=4): %s" f e))
    files

let () =
  Alcotest.run "faults"
    [
      ( "plan",
        [
          Alcotest.test_case "keyed determinism" `Quick test_plan_keyed_determinism;
          Alcotest.test_case "die is injective" `Quick test_plan_die_injective;
          Alcotest.test_case "crash windows" `Quick test_plan_crash_windows;
          Alcotest.test_case "network hooks compilation" `Quick
            test_plan_network_hooks_compilation;
        ] );
      ( "network",
        [
          Alcotest.test_case "stall books separately" `Quick test_network_stall_books_separately;
          Alcotest.test_case "overload injects unbudgeted" `Quick test_network_overload_injects;
        ] );
      ( "scheme outcomes",
        [
          Alcotest.test_case "nominal completes" `Quick test_nominal_run_completes;
          Alcotest.test_case "crash-stop degrades" `Quick test_crash_stop_degrades;
          Alcotest.test_case "crash-recovery rejoins" `Quick test_crash_recovery_rejoins;
          Alcotest.test_case "overload degrades" `Quick test_overload_degrades_with_injections;
          Alcotest.test_case "stall degrades" `Quick test_stall_degrades_with_stalled_slots;
          Alcotest.test_case "state rot degrades" `Quick test_state_rot_degrades;
          Alcotest.test_case "deterministic outcome" `Quick test_run_outcome_deterministic;
        ] );
      (* Runs have no watchdog any more; the group keeps its name so
         that the test keeps its id. *)
      ( "watchdogs",
        [ Alcotest.test_case "validation raises eagerly" `Quick test_validation_still_raises ] );
      ( "transcript rot",
        [ Alcotest.test_case "corrupt isolated from copies" `Quick test_transcript_corrupt_isolated ] );
      ( "attack scenarios",
        [
          Alcotest.test_case "discovered worst cases replay to pinned classes" `Quick
            test_discovered_attack_scenarios;
        ] );
    ]
