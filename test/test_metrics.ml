(* Tests for lib/metrics: histogram bucket math, registry probes and
   snapshot/merge determinism, the exposition writers, domain-safety of
   the atomic cells, and the end-to-end contract — a scheme run's exact
   telemetry is a pure function of its configuration, and an aborted
   run's diagnosis names the iteration and phase it died in. *)

module Hist = Metrics.Hist
module Reg = Metrics.Registry
module Expo = Metrics.Expo

(* ---------- histogram ---------- *)

let test_hist_buckets () =
  (* Small values are exact cells. *)
  for v = 0 to 15 do
    Alcotest.(check int) (Printf.sprintf "exact cell %d" v) v (Hist.bucket_of v);
    Alcotest.(check int) (Printf.sprintf "exact bound %d" v) v (Hist.upper_of v)
  done;
  (* Bucket index is monotone in the value and the bound brackets it
     within the octave/8 resolution. *)
  let prev = ref (-1) in
  let v = ref 1 in
  while !v > 0 && !v < max_int / 4 do
    let b = Hist.bucket_of !v in
    Alcotest.(check bool) "monotone" true (b >= !prev);
    Alcotest.(check bool) "in range" true (b >= 0 && b < Hist.bucket_count);
    let hi = Hist.upper_of b in
    Alcotest.(check bool) (Printf.sprintf "upper_of bounds %d" !v) true (hi >= !v);
    if !v >= 16 then
      Alcotest.(check bool)
        (Printf.sprintf "~12.5%% resolution at %d" !v)
        true
        (float_of_int hi <= 1.126 *. float_of_int !v);
    prev := b;
    v := (!v * 7) + 3
  done

let test_hist_observe () =
  let h = Hist.create () in
  List.iter (Hist.observe h) [ 0; 3; 3; 100; 1_000_000; -5 ];
  Alcotest.(check int) "count" 6 (Hist.count h);
  (* negative clamps to 0, so the sum sees it as 0 *)
  Alcotest.(check int) "sum" (0 + 3 + 3 + 100 + 1_000_000) (Hist.sum h);
  let nz = Hist.nonzero h in
  Alcotest.(check bool) "nonzero ascending" true
    (List.sort (fun (a, _) (b, _) -> compare a b) nz = nz);
  Alcotest.(check int) "cells cover count" (Hist.count h)
    (List.fold_left (fun a (_, c) -> a + c) 0 nz);
  Alcotest.(check (list (pair int int))) "exact cells" [ (0, 2); (3, 2) ]
    (List.filter (fun (up, _) -> up < 16) nz)

(* ---------- registry ---------- *)

let test_registry_probes () =
  let r = Reg.create () in
  let c = Reg.counter r "a.count" in
  Reg.incr c;
  Reg.add c 4;
  (* Get-or-create: a second handle hits the same cell. *)
  Reg.incr (Reg.counter r "a.count");
  Alcotest.(check int) "counter accumulates across handles" 6 (Reg.counter_value c);
  let g = Reg.gauge r "a.level" in
  Reg.set g 1.5;
  Reg.set g 2.5;
  let h = Reg.hist r "a.h" in
  Reg.observe h 3;
  Reg.observe h 20;
  Reg.observe h 20;
  Alcotest.(check int) "hist count via handle" 3 (Reg.hist_count h);
  (* Snapshot is name-sorted and carries the right shapes. *)
  (match Reg.snapshot r with
  | [ ("a.count", Reg.Exact, Reg.Counter 6);
      ("a.h", Reg.Exact, Reg.Histogram { count = 3; sum = 43; _ });
      ("a.level", Reg.Timed, Reg.Gauge 2.5) ] -> ()
  | s -> Alcotest.failf "unexpected snapshot shape (%d entries)" (List.length s));
  (* Type mismatch on a taken name is a programming error. *)
  (match Reg.gauge r "a.count" with
  | _ -> Alcotest.fail "counter name re-registered as gauge"
  | exception Invalid_argument _ -> ());
  (* First klass wins. *)
  let c2 = Reg.counter r ~klass:Reg.Timed "a.count" in
  Reg.incr c2;
  (match List.find (fun (n, _, _) -> n = "a.count") (Reg.snapshot r) with
  | _, Reg.Exact, Reg.Counter 7 -> ()
  | _ -> Alcotest.fail "first-registered klass should win")

let test_registry_disabled () =
  Alcotest.(check bool) "disabled" false (Reg.is_enabled Reg.disabled);
  let c = Reg.counter Reg.disabled "x" in
  Reg.incr c;
  Reg.add c 100;
  Reg.set (Reg.gauge Reg.disabled "y") 5.;
  Reg.observe (Reg.hist Reg.disabled "z") 5;
  Alcotest.(check int) "counter stays 0" 0 (Reg.counter_value c);
  Alcotest.(check int) "snapshot empty" 0 (List.length (Reg.snapshot Reg.disabled))

let test_registry_merge () =
  let mk cv gv =
    let r = Reg.create () in
    Reg.add (Reg.counter r "c") cv;
    Reg.set (Reg.gauge r "g") gv;
    Reg.observe (Reg.hist r "h") cv;
    Reg.snapshot r
  in
  let merged = Reg.merge [ mk 2 1.0; mk 5 9.0 ] in
  (match List.find (fun (n, _, _) -> n = "c") merged with
  | _, _, Reg.Counter 7 -> ()
  | _ -> Alcotest.fail "counters add");
  (match List.find (fun (n, _, _) -> n = "g") merged with
  | _, _, Reg.Gauge 9.0 -> ()
  | _ -> Alcotest.fail "gauges keep the last value in merge order");
  (match List.find (fun (n, _, _) -> n = "h") merged with
  | _, _, Reg.Histogram { count = 2; sum = 7; buckets } ->
      Alcotest.(check bool) "bucket cells add" true
        (List.fold_left (fun a (_, c) -> a + c) 0 buckets = 2)
  | _ -> Alcotest.fail "histograms merge cellwise");
  (* Merge is associative over disjoint names and klass filters split. *)
  let r = Reg.create () in
  Reg.incr (Reg.counter r "only.exact");
  Reg.set (Reg.gauge r "only.timed") 1.;
  let s = Reg.snapshot r in
  Alcotest.(check int) "exact_only" 1 (List.length (Reg.exact_only s));
  Alcotest.(check int) "timed_only" 1 (List.length (Reg.timed_only s))

let test_registry_domain_safety () =
  (* 4 domains, 10k increments each: atomic adds commute, so the totals
     are exact — the property that lets metrics stay on in live mode. *)
  let r = Reg.create () in
  let c = Reg.counter r "par.c" in
  let h = Reg.hist r "par.h" in
  let per_domain = 10_000 in
  let work () =
    for i = 1 to per_domain do
      Reg.incr c;
      Reg.observe h (i land 1023)
    done
  in
  let ds = Array.init 4 (fun _ -> Domain.spawn work) in
  Array.iter Domain.join ds;
  Alcotest.(check int) "counter exact under contention" (4 * per_domain) (Reg.counter_value c);
  Alcotest.(check int) "hist count exact under contention" (4 * per_domain) (Reg.hist_count h)

(* ---------- exposition ---------- *)

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let expo_snapshot () =
  let r = Reg.create () in
  Reg.add (Reg.counter r "net.cc") 42;
  Reg.set (Reg.gauge r ~klass:Reg.Exact "net.noise-rate") 0.25;
  let h = Reg.hist r "live.round_ns" in
  Reg.observe h 3;
  Reg.observe h 100;
  Reg.set (Reg.gauge r "sched.level") 7.;
  Reg.snapshot r

let test_openmetrics () =
  let om = Expo.openmetrics (expo_snapshot ()) in
  Alcotest.(check bool) "counter type line" true (contains om "# TYPE net_cc counter");
  Alcotest.(check bool) "counter sample" true (contains om "net_cc_total 42");
  Alcotest.(check bool) "dots and dashes sanitized" true (contains om "net_noise_rate 0.25");
  Alcotest.(check bool) "histogram type" true (contains om "# TYPE live_round_ns histogram");
  Alcotest.(check bool) "le=3 cell" true (contains om "live_round_ns_bucket{le=\"3\"} 1");
  Alcotest.(check bool) "+Inf cumulative" true (contains om "live_round_ns_bucket{le=\"+Inf\"} 2");
  Alcotest.(check bool) "sum" true (contains om "live_round_ns_sum 103");
  Alcotest.(check bool) "count" true (contains om "live_round_ns_count 2");
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
        (Option.bind (member2 "timed" "sched.level") Util.Json.to_float);
      Alcotest.(check bool) "hist has percentiles" true
        (Option.bind (member2 "exact" "live.round_ns") (Util.Json.member "p95") <> None)
  | None -> Alcotest.fail "json line does not parse");
  (* exact_json is the byte-comparison subject: no timed members. *)
  let ej = Expo.exact_json snap in
  Alcotest.(check bool) "exact_json drops timed" false (contains ej "sched.level");
  Alcotest.(check bool) "exact_json keeps exact" true (contains ej "net.cc")

let test_hist_quantile () =
  let h = Hist.create () in
  (* Exact range: values below 16 have one cell each, so interpolation
     is exact.  1..10: p50 lands on 5, p95 on 10 (rank ceil). *)
  for v = 1 to 10 do
    Hist.observe h v
  done;
  Alcotest.(check (float 1e-9)) "exact p50" 5. (Hist.quantile h 0.50);
  Alcotest.(check (float 1e-9)) "exact max" 10. (Hist.quantile h 1.0);
  Alcotest.(check (float 1e-9)) "clamped below" 1. (Hist.quantile h (-1.));
  (* Log range: the documented bound — within 12.5% of the true value. *)
  let h2 = Hist.create () in
  List.iter (Hist.observe h2) [ 1000; 2000; 3000; 4000 ];
  let q = Hist.quantile h2 0.5 in
  Alcotest.(check bool)
    (Printf.sprintf "p50 within bucket bound (%.1f)" q)
    true
    (Float.abs (q -. 2000.) <= 0.125 *. 2000.);
  (* The bucket-list estimator agrees with the live one. *)
  Alcotest.(check (float 1e-9)) "bucket-list form agrees" q
    (Hist.quantile_of_buckets (Hist.nonzero h2) ~count:(Hist.count h2) 0.5);
  Alcotest.(check (float 1e-9)) "empty" 0. (Hist.quantile (Hist.create ()) 0.5)

let test_expo_escaping () =
  (* Hostile registry keys must neither corrupt the OpenMetrics text
     nor break the JSON line. *)
  let r = Reg.create () in
  Reg.add (Reg.counter r "evil\"quote\\back.slash") 3 |> ignore;
  let snap = Reg.snapshot r in
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

let scheme_exact ?(shards = 0) ?max_iterations ?max_wall_s ?sink
    ?(adversary = Netsim.Adversary.iid (Util.Rng.create 6) ~rate:0.001) () =
  let g = Topology.Graph.cycle 6 in
  let pi = Protocol.Protocols.random_chatter g ~rounds:40 ~density:0.5 ~seed:3 in
  let params = Coding.Params.algorithm_1 g in
  let reg = Reg.create () in
  let backend =
    if shards = 0 then Coding.Scheme.Lockstep
    else Coding.Scheme.Live (Live.Config.make ~shards ())
  in
  let config =
    Coding.Scheme.Config.make ~metrics:reg ~backend ?max_iterations ?max_wall_s ?sink ()
  in
  let outcome =
    Coding.Scheme.run_outcome ~config ~rng:(Util.Rng.create 5) params pi adversary
  in
  (outcome, Reg.snapshot reg)

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
  (* Every count booked up to the abort, pinned: the aborted run's
     Exact metrics are as deterministic as a completed run's. *)
  Alcotest.(check string) "aborted exact metrics digest" "efab83dbee5283f9e9cc38a238519eb6"
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
        "efab83dbee5283f9e9cc38a238519eb6"
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

let test_pool_metrics () =
  let run ~jobs =
    let reg = Reg.create () in
    let outcomes =
      Runner.Pool.run ~metrics:reg ~jobs ~trials:8 (fun t ->
          if t = 3 then failwith "boom" else t * t)
    in
    Alcotest.(check int) "outcomes" 8 (Array.length outcomes);
    Reg.snapshot reg
  in
  let s1 = run ~jobs:1 and s2 = run ~jobs:4 in
  Alcotest.(check string) "pool exact metrics jobs-invariant" (Expo.exact_json s1)
    (Expo.exact_json s2);
  let find snap n =
    match List.find_opt (fun (m, _, _) -> m = n) snap with
    | Some (_, _, Reg.Counter v) -> v
    | _ -> Alcotest.failf "metric %s missing" n
  in
  Alcotest.(check int) "trials counted" 8 (find s1 "runner.trials");
  Alcotest.(check int) "errors counted" 1 (find s1 "runner.errors")

let () =
  Alcotest.run "metrics"
    [
      ( "hist",
        [
          Alcotest.test_case "bucket math" `Quick test_hist_buckets;
          Alcotest.test_case "observe + nonzero" `Quick test_hist_observe;
          Alcotest.test_case "quantile estimator" `Quick test_hist_quantile;
        ] );
      ( "registry",
        [
          Alcotest.test_case "probes + snapshot" `Quick test_registry_probes;
          Alcotest.test_case "disabled is inert" `Quick test_registry_disabled;
          Alcotest.test_case "merge semantics" `Quick test_registry_merge;
          Alcotest.test_case "domain safety" `Quick test_registry_domain_safety;
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
        ] );
    ]
