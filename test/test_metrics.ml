(* Tests for lib/metrics: snapshot merge semantics, the exposition
   writers, and the end-to-end contract — a run's metrics are a total,
   pure projection of its outcome (Coding.Report.metrics), identical
   across shard and job counts, and an aborted run's diagnosis names
   the iteration and phase it died in. *)

module Reg = Metrics.Registry
module Expo = Metrics.Expo

(* ---------- snapshots ---------- *)

let test_registry_merge () =
  let mk cv gv = [ ("c", Reg.Exact, Reg.Counter cv); ("g", Reg.Timed, Reg.Gauge gv) ] in
  let merged = Reg.merge [ mk 2 1.0; mk 5 9.0 ] in
  (match List.find (fun (n, _, _) -> n = "c") merged with
  | _, _, Reg.Counter 7 -> ()
  | _ -> Alcotest.fail "counters add");
  (match List.find (fun (n, _, _) -> n = "g") merged with
  | _, _, Reg.Gauge 9.0 -> ()
  | _ -> Alcotest.fail "gauges keep the last value in merge order");
  (* Klass filters split. *)
  let s = [ ("only.exact", Reg.Exact, Reg.Counter 1); ("only.timed", Reg.Timed, Reg.Gauge 1.) ] in
  Alcotest.(check int) "exact_only" 1 (List.length (Reg.exact_only s));
  Alcotest.(check int) "timed_only" 1 (List.length (Reg.timed_only s))

(* ---------- exposition ---------- *)

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let expo_snapshot () =
  [
    ("net.cc", Reg.Exact, Reg.Counter 42);
    ("net.noise-rate", Reg.Exact, Reg.Gauge 0.25);
    ("sched.level", Reg.Timed, Reg.Gauge 7.);
  ]

let test_openmetrics () =
  let om = Expo.openmetrics (expo_snapshot ()) in
  Alcotest.(check bool) "counter type line" true (contains om "# TYPE net_cc counter");
  Alcotest.(check bool) "counter sample" true (contains om "net_cc_total 42");
  Alcotest.(check bool) "gauge type line" true (contains om "# TYPE net_noise_rate gauge");
  Alcotest.(check bool) "dots and dashes sanitized" true (contains om "net_noise_rate 0.25");
  let n = String.length om in
  Alcotest.(check string) "EOF terminated" "# EOF\n" (String.sub om (n - 6) 6)

let test_json_exposition () =
  let snap = expo_snapshot () in
  let line = Expo.json snap in
  Alcotest.(check bool) "one line" false (contains line "\n");
  (match Util.Json.parse_opt line with
  | Some j ->
      let member2 a b = Option.bind (Util.Json.member a j) (Util.Json.member b) in
      Alcotest.(check (option (float 1e-9))) "counter under exact" (Some 42.)
        (Option.bind (member2 "exact" "net.cc") Util.Json.to_float);
      Alcotest.(check (option (float 1e-9))) "timed gauge under timed" (Some 7.)
        (Option.bind (member2 "timed" "sched.level") Util.Json.to_float)
  | None -> Alcotest.fail "json line does not parse");
  (* exact_json is the byte-comparison subject: no timed members. *)
  let ej = Expo.exact_json snap in
  Alcotest.(check bool) "exact_json drops timed" false (contains ej "sched.level");
  Alcotest.(check bool) "exact_json keeps exact" true (contains ej "net.cc")

let test_expo_escaping () =
  (* Hostile metric names must neither corrupt the OpenMetrics text
     nor break the JSON line. *)
  let snap = [ ("evil\"quote\\back.slash", Reg.Exact, Reg.Counter 3) ] in
  let om = Expo.openmetrics snap in
  Alcotest.(check bool) "openmetrics name sanitized" true
    (contains om "evil_quote_back_slash_total 3");
  Alcotest.(check bool) "no raw quote in openmetrics" false (contains om "evil\"");
  let line = Expo.json snap in
  match Util.Json.parse_opt line with
  | Some j ->
      Alcotest.(check (option (float 1e-9))) "json key round-trips" (Some 3.)
        (Option.bind
           (Option.bind (Util.Json.member "exact" j)
              (Util.Json.member "evil\"quote\\back.slash"))
           Util.Json.to_float)
  | None -> Alcotest.fail "json line with hostile key does not parse"

(* ---------- end-to-end: scheme runs ---------- *)

(* One Algorithm 1 run on a 6-cycle and its projected metrics.  The run
   keeps its per-iteration trace unless [~trace:false], so the
   projection carries Φ. *)
let scheme_exact ?(shards = 0) ?(trace = true) ?faults ?max_iterations ?max_wall_s ?sink
    ?(adversary = Netsim.Adversary.iid (Util.Rng.create 6) ~rate:0.001) () =
  let g = Topology.Graph.cycle 6 in
  let pi = Protocol.Protocols.random_chatter g ~rounds:40 ~density:0.5 ~seed:3 in
  let params = Coding.Params.algorithm_1 g in
  let backend =
    if shards = 0 then Coding.Scheme.Lockstep
    else Coding.Scheme.Live (Live.Config.make ~shards ())
  in
  let config =
    Coding.Scheme.Config.make ~trace ~backend ?faults ?max_iterations ?max_wall_s ?sink ()
  in
  let outcome =
    Coding.Scheme.run_outcome ~config ~rng:(Util.Rng.create 5) params pi adversary
  in
  (outcome, Coding.Report.metrics ~k:params.Coding.Params.k ~m:(Topology.Graph.m g) outcome)

(* The probes are the projection's readings of the outcome: a projected
   snapshot keeps the snapshot contract (name-sorted, one entry per
   name), and merging snapshots keeps it too -- on a name collision the
   first klass and, across types, the first value win. *)
let test_registry_snapshot () =
  let _, snap = scheme_exact () in
  let names = List.map (fun (n, _, _) -> n) snap in
  Alcotest.(check (list string)) "projection is name-sorted, names unique"
    (List.sort_uniq compare names) names;
  let doubled = Reg.merge [ snap; snap ] in
  Alcotest.(check (list string)) "self-merge keeps the names" names
    (List.map (fun (n, _, _) -> n) doubled);
  List.iter2
    (fun (n, k, v) (_, k', v') ->
      Alcotest.(check bool) (n ^ " klass kept") true (k = k');
      match (v, v') with
      | Reg.Counter a, Reg.Counter b -> Alcotest.(check int) (n ^ " counter doubles") (2 * a) b
      | Reg.Gauge a, Reg.Gauge b -> Alcotest.(check (float 0.)) (n ^ " gauge kept") a b
      | _ -> Alcotest.failf "%s changed type in a self-merge" n)
    snap doubled;
  match
    Reg.merge
      [
        [ ("b", Reg.Exact, Reg.Counter 1); ("a", Reg.Exact, Reg.Counter 6) ];
        [ ("a", Reg.Timed, Reg.Counter 1); ("b", Reg.Exact, Reg.Gauge 2.) ];
      ]
  with
  | [ ("a", Reg.Exact, Reg.Counter 7); ("b", Reg.Exact, Reg.Counter 1) ] -> ()
  | s -> Alcotest.failf "unexpected merge shape (%d entries)" (List.length s)

let test_scheme_metrics_deterministic () =
  let outcome, s1 = scheme_exact () in
  let _, s2 = scheme_exact () in
  Alcotest.(check string) "same config, same exact bytes" (Expo.exact_json s1)
    (Expo.exact_json s2);
  let result = Option.get (Faults.Outcome.result outcome) in
  let find n =
    match List.find_opt (fun (m, _, _) -> m = n) s1 with
    | Some (_, _, Reg.Counter v) -> v
    | _ -> Alcotest.failf "metric %s missing" n
  in
  (* The metrics agree with the result record they observed. *)
  Alcotest.(check int) "net.cc = result cc" result.Coding.Scheme.cc (find "net.cc");
  Alcotest.(check int) "scheme.iterations = iterations_run"
    result.Coding.Scheme.iterations_run (find "scheme.iterations");
  Alcotest.(check int) "corruptions counted" result.Coding.Scheme.corruptions
    (find "net.corruptions");
  Alcotest.(check int) "outcome tally" 1
    (find "scheme.outcome.completed" + find "scheme.outcome.degraded");
  Alcotest.(check int) "no abort" 0 (find "scheme.outcome.aborted")

let test_scheme_metrics_shard_invariant () =
  let _, s1 = scheme_exact ~shards:1 () in
  let _, s2 = scheme_exact ~shards:2 () in
  Alcotest.(check string) "lockstep vs live d=0 exact bytes" (Expo.exact_json s1)
    (Expo.exact_json s2)

exception Planted

let test_aborted_run_names_its_phase () =
  (* An adversary that raises inside iteration 2's simulation phase:
     the run aborts with an internal error, the diagnosis says where,
     and the abort is tallied. *)
  let adversary =
    Netsim.Adversary.Adaptive
      {
        budget = (fun _ -> 0);
        strategy =
          (fun ctx ->
            if ctx.Netsim.Adversary.iteration = 2 && ctx.Netsim.Adversary.phase = Netsim.Adversary.Simulation
            then raise Planted
            else []);
      }
  in
  let outcome, snap = scheme_exact ~adversary () in
  (match outcome with
  | Faults.Outcome.Aborted (Faults.Outcome.Internal_error msg, diag) ->
      Alcotest.(check bool) "the planted exception" true (contains msg "Planted");
      Alcotest.(check (list string)) "abort note" [ "aborted in iteration 2 during phase.simulation" ]
        diag.Faults.Outcome.notes;
      Alcotest.(check bool) "pp_diagnosis prints it" true
        (contains
           (Format.asprintf "%a" Faults.Outcome.pp_diagnosis diag)
           "aborted in iteration 2 during phase.simulation")
  | o -> Alcotest.failf "expected an internal-error abort, got %s" (Faults.Outcome.label o));
  (match List.find_opt (fun (n, _, _) -> n = "scheme.outcome.aborted") snap with
  | Some (_, _, Reg.Counter 1) -> ()
  | _ -> Alcotest.fail "aborted outcome not tallied");
  (* What the aborted run's diagnosis holds, pinned: its projection is
     as deterministic as a completed run's. *)
  Alcotest.(check string) "aborted exact metrics digest" "c9949dda57d4bd4978174d412e6109a9"
    (Digest.to_hex (Digest.string (Expo.exact_json snap)));
  (* At 2 shards the run aborts at the same round with the same books,
     and its trace is the serial one, event for event: the timing-free
     export of the aborted run is pinned at 1 and 2 shards alike. *)
  let export_digest sink = Digest.to_hex (Digest.string (Trace.Export.jsonl sink)) in
  let sink1 = Trace.Sink.create () and sink2 = Trace.Sink.create () in
  ignore (scheme_exact ~sink:sink1 ~adversary ());
  Alcotest.(check string) "aborted export digest" "5d4b97b4e25f4327c087bf28847ebd78"
    (export_digest sink1);
  (match scheme_exact ~shards:2 ~sink:sink2 ~adversary () with
  | Faults.Outcome.Aborted (Faults.Outcome.Internal_error _, _), snap2 ->
      Alcotest.(check string) "aborted exact metrics digest, 2 shards"
        "c9949dda57d4bd4978174d412e6109a9"
        (Digest.to_hex (Digest.string (Expo.exact_json snap2)));
      Alcotest.(check string) "aborted export digest, 2 shards"
        "5d4b97b4e25f4327c087bf28847ebd78" (export_digest sink2)
  | o, _ ->
      Alcotest.failf "expected an internal-error abort at 2 shards, got %s"
        (Faults.Outcome.label o));
  (* A wall budget of 0 trips the watchdog at its first check, right
     after iteration 0 opens. *)
  match scheme_exact ~max_wall_s:0. () with
  | Faults.Outcome.Aborted (Faults.Outcome.Wall_budget _, diag), _ ->
      Alcotest.(check (list string)) "watchdog note"
        [ "aborted in iteration 0 during scheme.iteration" ] diag.Faults.Outcome.notes
  | o, _ -> Alcotest.failf "expected Wall_budget abort, got %s" (Faults.Outcome.label o)

(* Per-trial metrics through the pool: each trial projects its own
   outcome, the snapshots merge in trial order, and the merge is the
   same at any job count.  Trial, error and timeout counts are plain
   counts over the outcome array. *)
let test_pool_metrics () =
  let run ~jobs =
    let outcomes =
      Runner.Pool.run ~jobs ~trials:6 (fun t ->
          if t = 3 then failwith "boom"
          else
            snd
              (scheme_exact
                 ~adversary:(Netsim.Adversary.iid (Util.Rng.create (100 + t)) ~rate:0.002)
                 ()))
    in
    let snaps =
      Array.to_list outcomes
      |> List.filter_map (function Runner.Pool.Value s -> Some s | _ -> None)
    in
    let errors =
      Array.fold_left
        (fun n o -> match o with Runner.Pool.Raised _ -> n + 1 | _ -> n)
        0 outcomes
    in
    (Expo.exact_json (Reg.merge snaps), errors)
  in
  let s1, e1 = run ~jobs:1 and s4, e4 = run ~jobs:4 in
  Alcotest.(check string) "merged exact metrics jobs-invariant" s1 s4;
  Alcotest.(check (pair int int)) "errors counted from outcomes" (1, 1) (e1, e4);
  Alcotest.(check bool) "five runs tallied" true (contains s1 "\"scheme.iterations\"");
  Alcotest.(check bool) "outcomes tallied" true
    (contains s1 "\"scheme.outcome.completed\": 5")

(* The projection is total: every outcome constructor, and a run that
   kept no per-iteration trace (then there is no Φ to project). *)
let test_projection_total () =
  let names snap = List.map (fun (n, _, _) -> n) snap in
  let has snap n = List.mem n (names snap) in
  let value snap n =
    match List.find_opt (fun (m, _, _) -> m = n) snap with
    | Some (_, Reg.Exact, Reg.Counter v) -> v
    | _ -> Alcotest.failf "exact counter %s missing" n
  in
  let tallied label snap =
    List.iter
      (fun l ->
        Alcotest.(check int) (label ^ ": tally " ^ l) (Bool.to_int (l = label))
          (value snap ("scheme.outcome." ^ l)))
      [ "completed"; "degraded"; "aborted" ]
  in
  let sorted snap = List.sort compare (names snap) = names snap in
  (* Completed: the jitter books read 0 and Φ is there. *)
  let o, snap = scheme_exact () in
  Alcotest.(check string) "completed run" "completed" (Faults.Outcome.label o);
  tallied "completed" snap;
  Alcotest.(check bool) "sorted" true (sorted snap);
  Alcotest.(check int) "no stalls when completed" 0 (value snap "net.stalled");
  Alcotest.(check bool) "phi projected" true (has snap "scheme.phi" && has snap "scheme.phi_stalls");
  (* Degraded: the stalls come from the diagnosis. *)
  let faults =
    Faults.Plan.make ~key:"projection"
      [ Faults.Plan.Link_stall { edge = 0; from_round = 50; rounds = 40 } ]
  in
  let o, snap = scheme_exact ~faults () in
  (match o with
  | Faults.Outcome.Degraded (_, d) ->
      tallied "degraded" snap;
      Alcotest.(check int) "stalls from the diagnosis" d.Faults.Outcome.stalled_slots
        (value snap "net.stalled");
      Alcotest.(check bool) "stalls booked" true (d.Faults.Outcome.stalled_slots > 0)
  | o -> Alcotest.failf "expected degraded, got %s" (Faults.Outcome.label o));
  (* Aborted: only what the diagnosis holds. *)
  let o, snap = scheme_exact ~max_iterations:0 () in
  Alcotest.(check string) "aborted run" "aborted" (Faults.Outcome.label o);
  tallied "aborted" snap;
  Alcotest.(check (list string)) "aborted series"
    [
      "net.injected";
      "net.stalled";
      "scheme.iterations";
      "scheme.outcome.aborted";
      "scheme.outcome.completed";
      "scheme.outcome.degraded";
    ]
    (names snap);
  (* No trace: everything but Φ. *)
  let _, traced = scheme_exact () and _, untraced = scheme_exact ~trace:false () in
  Alcotest.(check bool) "no phi without a trace" false
    (has untraced "scheme.phi" || has untraced "scheme.phi_stalls");
  Alcotest.(check (list string)) "the rest is unchanged"
    (List.filter (fun n -> n <> "scheme.phi" && n <> "scheme.phi_stalls") (names traced))
    (names untraced)

let () =
  Alcotest.run "metrics"
    [
      ( "registry",
        [
          Alcotest.test_case "probes + snapshot" `Quick test_registry_snapshot;
          Alcotest.test_case "merge semantics" `Quick test_registry_merge;
        ] );
      ( "expo",
        [
          Alcotest.test_case "openmetrics shape" `Quick test_openmetrics;
          Alcotest.test_case "json + exact_json" `Quick test_json_exposition;
          Alcotest.test_case "hostile-key escaping" `Quick test_expo_escaping;
        ] );
      ( "integration",
        [
          Alcotest.test_case "scheme metrics deterministic" `Quick
            test_scheme_metrics_deterministic;
          Alcotest.test_case "shard invariance" `Quick test_scheme_metrics_shard_invariant;
          Alcotest.test_case "aborted run names its phase" `Quick
            test_aborted_run_names_its_phase;
          Alcotest.test_case "pool metrics" `Quick test_pool_metrics;
          Alcotest.test_case "projection is total" `Quick test_projection_total;
        ] );
    ]
