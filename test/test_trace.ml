(* Tests for lib/trace: the ring-buffer sink's bookkeeping (ordering,
   wrap-around, drop-proof totals, declared ids), the disabled sink's no-op
   contract, timing-free export determinism, summary/aggregation, the
   meeting-points hash-collision probe, and a fully traced scheme run
   under a crash fault. *)

module Sink = Trace.Sink
module Export = Trace.Export

let test_sink_basics () =
  let t = Sink.create () in
  Alcotest.(check bool) "enabled" true (Sink.is_enabled t);
  let a = Sink.declare "alpha" and b = Sink.declare "beta" in
  Alcotest.(check int) "declaring is idempotent" a (Sink.declare "alpha");
  Alcotest.(check bool) "distinct names, distinct ids" true (a <> b);
  Alcotest.(check string) "name round-trips" "beta" (Sink.name b);
  Sink.span_begin t ~id:a ~iter:0;
  Sink.count t ~id:b ~iter:0 ~arg:3 2;
  Sink.count t ~id:b ~iter:1 5;
  Sink.gauge t ~id:a ~iter:1 (-2.5);
  Sink.span_end t ~id:a ~iter:1;
  Alcotest.(check int) "seq counts all events" 5 (Sink.seq t);
  Alcotest.(check int) "nothing dropped" 0 (Sink.dropped t);
  Alcotest.(check int) "counter total" 7 (Sink.counter_total t "beta");
  Alcotest.(check int) "unknown counter is 0" 0 (Sink.counter_total t "gamma");
  Alcotest.(check (option (float 1e-9))) "gauge last" (Some (-2.5)) (Sink.gauge_last t "alpha");
  (match Sink.events t with
  | [
   Sink.Span_begin { name = bn; _ };
   Sink.Count { arg = a0; value = v0; _ };
   Sink.Count { arg = a1; _ };
   Sink.Gauge { value = gv; _ };
   Sink.Span_end { seq = es; _ };
  ] ->
      Alcotest.(check string) "begin name" "alpha" bn;
      Alcotest.(check int) "count arg" 3 a0;
      Alcotest.(check int) "count value" 2 v0;
      Alcotest.(check int) "default arg" (-1) a1;
      Alcotest.(check (float 1e-9)) "gauge keeps its sign" (-2.5) gv;
      Alcotest.(check int) "seq ascends" 4 es
  | evs -> Alcotest.failf "expected 5 events, got %d" (List.length evs));
  Sink.reset t;
  Alcotest.(check int) "reset clears seq" 0 (Sink.seq t);
  Alcotest.(check int) "reset clears totals" 0 (Sink.counter_total t "beta")

let test_late_declaration () =
  (* Names declared after a sink exists outrun its side tables, which
     grow on the first probe; a name never emitted reads as absent. *)
  let t = Sink.create () in
  let late = List.init 40 (fun i -> Sink.declare (Printf.sprintf "late.%d" i)) in
  Alcotest.(check int) "unemitted total" 0 (Sink.counter_total t "late.39");
  List.iteri (fun i id -> Sink.count t ~id (i + 1)) late;
  Sink.gauge t ~id:(List.nth late 39) 1.5;
  Alcotest.(check int) "grown total" 40 (Sink.counter_total t "late.39");
  Alcotest.(check (option (float 1e-9))) "grown gauge" (Some 1.5) (Sink.gauge_last t "late.39");
  Alcotest.(check int) "every late counter listed" 40
    (List.length
       (List.filter
          (fun (n, _) -> String.length n > 5 && String.sub n 0 5 = "late.")
          (Sink.counter_totals t)));
  (* Concurrent declarations of the same fresh names agree. *)
  let names = List.init 50 (Printf.sprintf "race.%d") in
  let ds = List.init 3 (fun _ -> Domain.spawn (fun () -> List.map Sink.declare names)) in
  match List.map Domain.join ds with
  | first :: rest ->
      List.iter (fun ids -> Alcotest.(check (list int)) "same ids on every domain" first ids) rest;
      Alcotest.(check (list string)) "ids name their declarations" names
        (List.map Sink.name first)
  | [] -> assert false

let test_ring_wraps () =
  let t = Sink.create ~capacity:4 () in
  let c = Sink.declare "c" in
  for i = 1 to 10 do
    Sink.count t ~id:c ~iter:i 1
  done;
  Alcotest.(check int) "seq is lifetime" 10 (Sink.seq t);
  Alcotest.(check int) "dropped = overflow" 6 (Sink.dropped t);
  let evs = Sink.events t in
  Alcotest.(check int) "retains capacity" 4 (List.length evs);
  (match evs with
  | Sink.Count { iter; seq; _ } :: _ ->
      Alcotest.(check int) "oldest retained is #7" 7 iter;
      Alcotest.(check int) "seq gap reveals drops" 6 seq
  | _ -> Alcotest.fail "expected counts");
  Alcotest.(check int) "total survives drops" 10 (Sink.counter_total t "c")

let test_ring_capacity_one () =
  (* The degenerate ring: every push evicts its predecessor, yet the
     drop-proof side tables keep exact lifetime totals. *)
  let t = Sink.create ~capacity:1 () in
  let c = Sink.declare "c" and d = Sink.declare "d" in
  Sink.count t ~id:c ~iter:0 2;
  Sink.count t ~id:d ~iter:1 3;
  Sink.count t ~id:c ~iter:2 4;
  Alcotest.(check int) "seq is lifetime" 3 (Sink.seq t);
  Alcotest.(check int) "all but one dropped" 2 (Sink.dropped t);
  (match Sink.events t with
  | [ Sink.Count { name = "c"; value = 4; seq = 2; _ } ] -> ()
  | evs -> Alcotest.failf "expected only the last event, got %d" (List.length evs));
  Alcotest.(check int) "drop-proof total c" 6 (Sink.counter_total t "c");
  Alcotest.(check int) "drop-proof total d" 3 (Sink.counter_total t "d")

let test_iter_matches_events () =
  let t = Sink.create ~capacity:4 () in
  let c = Sink.declare "c" and s = Sink.declare "s" in
  Sink.span_begin t ~id:s ~iter:0;
  for i = 1 to 7 do
    Sink.count t ~id:c ~iter:i 1
  done;
  Sink.span_end t ~id:s ~iter:0;
  let collected = ref [] in
  Sink.iter t (fun ev -> collected := ev :: !collected);
  Alcotest.(check bool) "iter visits exactly the retained events, in order" true
    (List.rev !collected = Sink.events t)

let test_profile_alloc () =
  let t = Sink.create ~profile:true () in
  Alcotest.(check bool) "profiled" true (Sink.profiled t);
  let s = Sink.declare "phase.x" in
  Sink.span_begin t ~id:s ~iter:0;
  (* Small blocks so the allocation lands in the minor heap (a large
     array would go straight to the major heap). *)
  ignore (Sys.opaque_identity (List.init 100_000 (fun i -> i)));
  Sink.span_end t ~id:s ~iter:0;
  (match (Sink.alloc_words t ~seq:0, Sink.alloc_words t ~seq:1) with
  | Some (mn0, mj0), Some (mn1, mj1) ->
      Alcotest.(check bool) "minor words advanced past the list" true (mn1 -. mn0 >= 100_000.);
      Alcotest.(check bool) "major words monotone" true (mj1 >= mj0)
  | _ -> Alcotest.fail "alloc_words missing on a profiled sink");
  Alcotest.(check bool) "seq out of range" true (Sink.alloc_words t ~seq:5 = None);
  let u = Sink.create () in
  Sink.span_begin u ~id:(Sink.declare "x") ~iter:0;
  Alcotest.(check bool) "unprofiled sink has no alloc data" true (Sink.alloc_words u ~seq:0 = None)

let test_disabled_noop () =
  let t = Sink.disabled in
  Alcotest.(check bool) "disabled" false (Sink.is_enabled t);
  let id = Sink.declare "anything" in
  Sink.span_begin t ~id ~iter:0;
  Sink.count t ~id 5;
  Sink.gauge t ~id 1.0;
  Sink.span_end t ~id ~iter:0;
  Alcotest.(check int) "no events" 0 (Sink.seq t);
  Alcotest.(check (list (pair string int))) "no totals" [] (Sink.counter_totals t);
  Alcotest.(check bool) "no retained events" true (Sink.events t = [])

let fill_sample t =
  let s = Sink.declare "phase.x" and c = Sink.declare "hits" and g = Sink.declare "phi" in
  Sink.span_begin t ~id:s ~iter:0;
  Sink.count t ~id:c ~iter:0 ~arg:2 1;
  Sink.gauge t ~id:g ~iter:0 3.125;
  Sink.span_end t ~id:s ~iter:0

let test_export_deterministic () =
  let mk () =
    let t = Sink.create () in
    fill_sample t;
    t
  in
  let a = mk () and b = mk () in
  Alcotest.(check string) "jsonl identical" (Export.jsonl a)
    (Export.jsonl b);
  Alcotest.(check string) "chrome identical" (Export.chrome ~timing:false a)
    (Export.chrome ~timing:false b);
  (* Timing-free output carries no wall-clock field. *)
  let lines = String.split_on_char '\n' (Export.jsonl a) in
  List.iter
    (fun l ->
      let has_ts =
        let n = String.length l in
        let rec go i = i + 5 <= n && (String.sub l i 5 = "\"ts\":" || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) "no ts field" false has_ts)
    lines

let test_summary_and_agg () =
  let t = Sink.create () in
  fill_sample t;
  let s = Trace.Summary.of_sink t in
  Alcotest.(check int) "events" 4 s.Trace.Summary.events;
  Alcotest.(check (list (pair string int))) "counters" [ ("hits", 1) ] s.Trace.Summary.counters;
  let names = List.map fst (Trace.Summary.metrics s) in
  Alcotest.(check bool) "metric names sorted" true (names = List.sort compare names);
  Alcotest.(check bool) "has ctr + gauge + meta" true
    (List.mem "ctr.hits" names && List.mem "gauge.phi" names && List.mem "trace.events" names);
  let agg = Runner.Trace_agg.create () in
  Runner.Trace_agg.add agg s;
  Runner.Trace_agg.add agg s;
  (match List.assoc_opt "ctr.hits" (Runner.Trace_agg.metrics agg) with
  | Some a ->
      Alcotest.(check int) "two samples" 2 a.Runner.Accum.n;
      Alcotest.(check (float 1e-9)) "mean" 1. a.Runner.Accum.mean
  | None -> Alcotest.fail "ctr.hits missing from aggregation")

let test_mp_collision_probe () =
  (* A constant hasher makes every vote succeed, so a ground truth of
     "the transcripts disagree" must register as a hash collision. *)
  let module MP = Coding.Meeting_points in
  let h = { MP.h_int = (fun ~field:_ _ -> 0); h_prefix = (fun ~field:_ _ -> 0) } in
  let a = MP.create () and b = MP.create () in
  let msg_a = MP.prepare a h ~len:4 in
  ignore (MP.prepare b h ~len:6);
  let collisions = ref 0 in
  let probe =
    {
      MP.truth = (fun ~pos -> if pos > 0 then Some false else None);
      on_collision = (fun ~pos:_ -> incr collisions);
    }
  in
  ignore (MP.process b h ~probe ~len:6 msg_a);
  Alcotest.(check bool)
    (Printf.sprintf "collision observed (%d)" !collisions)
    true (!collisions >= 1);
  (* With agreeing ground truth the same votes are silent. *)
  let a2 = MP.create () and b2 = MP.create () in
  let msg2 = MP.prepare a2 h ~len:4 in
  ignore (MP.prepare b2 h ~len:4);
  let false_alarms = ref 0 in
  let probe2 =
    { MP.truth = (fun ~pos:_ -> Some true); on_collision = (fun ~pos:_ -> incr false_alarms) }
  in
  ignore (MP.process b2 h ~probe:probe2 ~len:4 msg2);
  Alcotest.(check int) "no collision on agreement" 0 !false_alarms

let test_scheme_collision_probe () =
  (* The scheme's probe end to end: at τ = 2 every meeting-points vote
     is a 2-bit hash, and the seed-aware collision hunter plants
     corruptions whose hashes still match, so a traced Algorithm 1 run
     counts many collisions against the probe's ground truth (the two
     ends' serialized prefixes, compared word by word).  The collision
     total and the timing-free export are pinned: a ground truth that
     answers differently moves both. *)
  let g = Topology.Graph.cycle 6 in
  let pi = Protocol.Protocols.random_chatter g ~rounds:60 ~density:0.5 ~seed:2 in
  let adv, hook, _ = Coding.Attacks.collision_hunter ~graph:g ~edge:0 ~depth:4 ~rate_denom:300 () in
  let sink = Sink.create () in
  let outcome =
    Coding.Scheme.run_outcome
      ~config:(Coding.Scheme.Config.make ~sink ~spy_hook:hook ())
      ~rng:(Util.Rng.create 1) (Coding.Params.algorithm_1 ~tau:2 g) pi adv
  in
  Alcotest.(check string) "run completes" "completed" (Faults.Outcome.label outcome);
  Alcotest.(check int) "no events dropped" 0 (Sink.dropped sink);
  Alcotest.(check int) "mp.hash_collision total" 116 (Sink.counter_total sink "mp.hash_collision");
  Alcotest.(check string) "export digest" "7aecc0122fd5d86d5bbeb5938d40d7a4"
    (Digest.to_hex (Digest.string (Export.jsonl sink)))

(* ---------- shard counts ---------- *)

(* Shard invariance of the trace: a traced run on the live backend
   exports byte-identically to the lockstep oracle at ragged depth 0,
   for shards in {1, 2, 4}, with identical outcomes. *)
let scheme_export ~backend () =
  let g = Topology.Graph.cycle 8 in
  let pi = Protocol.Protocols.random_chatter g ~rounds:60 ~density:0.5 ~seed:3 in
  let params = Coding.Params.algorithm_1 g in
  let sink = Sink.create () in
  let faults =
    Faults.Plan.make ~key:"test-sharded"
      [ Faults.Plan.Crash { party = 1; at_iteration = 2; recover_at = None } ]
  in
  let config = Coding.Scheme.Config.make ~sink ~faults ~backend () in
  let outcome =
    Coding.Scheme.run_outcome ~config ~rng:(Util.Rng.create 5) params pi
      (Netsim.Adversary.iid (Util.Rng.create 6) ~rate:0.002)
  in
  (outcome, Export.jsonl sink, sink)

let outcome_fingerprint = function
  | Faults.Outcome.Completed r | Faults.Outcome.Degraded (r, _) ->
      Printf.sprintf "%b:%d:%d" r.Coding.Scheme.success r.Coding.Scheme.corruptions
        r.Coding.Scheme.iterations_run
  | Faults.Outcome.Aborted (reason, _) -> Faults.Outcome.abort_to_string reason

let test_sharded_byte_identity () =
  let o0, oracle, _ = scheme_export ~backend:Coding.Scheme.Lockstep () in
  Alcotest.(check bool) "oracle trace nonempty" true (String.length oracle > 0);
  List.iter
    (fun shards ->
      let o, live, _ =
        scheme_export
          ~backend:(Coding.Scheme.Live (Live.Config.make ~shards ~ragged_d:0 ()))
          ()
      in
      Alcotest.(check string)
        (Printf.sprintf "outcome identical at shards=%d" shards)
        (outcome_fingerprint o0) (outcome_fingerprint o);
      Alcotest.(check string)
        (Printf.sprintf "export byte-identical at shards=%d" shards)
        oracle live)
    [ 1; 2; 4 ]

let test_sharded_ragged_well_ordered () =
  (* Ragged depth > 0 (keyed jitter, 2 shards): the run must finish and
     its spans must nest even though symbols surface rounds late. *)
  let o, live, sink =
    scheme_export ~backend:(Coding.Scheme.Live (Live.Config.make ~shards:2 ~ragged_d:1 ~jitter_rate:0.05 ())) ()
  in
  Alcotest.(check bool) "run finished" true
    (match o with Faults.Outcome.Aborted _ -> false | _ -> true);
  Alcotest.(check bool) "trace nonempty" true (String.length live > 0);
  let stack = ref [] in
  List.iter
    (function
      | Sink.Span_begin { name; _ } -> stack := name :: !stack
      | Sink.Span_end { name; _ } -> (
          match !stack with
          | top :: rest when top = name -> stack := rest
          | _ -> Alcotest.failf "span_end %s without matching begin" name)
      | _ -> ())
    (Sink.events sink);
  Alcotest.(check (list string)) "spans nest" [] !stack

(* One traced scheme execution under a crash fault: spans must nest,
   fault counters must fire, the potential gauge must be live, and the
   whole trace must replay byte-identically. *)
let traced_run () =
  let g = Topology.Graph.cycle 6 in
  let pi = Protocol.Protocols.random_chatter g ~rounds:40 ~density:0.5 ~seed:3 in
  let params = Coding.Params.algorithm_1 g in
  let sink = Sink.create () in
  let faults =
    Faults.Plan.make ~key:"test-trace"
      [ Faults.Plan.Crash { party = 0; at_iteration = 2; recover_at = None } ]
  in
  let config = Coding.Scheme.Config.make ~sink ~faults () in
  let outcome =
    Coding.Scheme.run_outcome ~config ~rng:(Util.Rng.create 5) params pi
      (Netsim.Adversary.iid (Util.Rng.create 6) ~rate:0.002)
  in
  (outcome, sink)

let test_traced_scheme_run () =
  let outcome, sink = traced_run () in
  Alcotest.(check bool) "run degraded, not aborted" true
    (match outcome with Faults.Outcome.Degraded _ -> true | _ -> false);
  Alcotest.(check int) "no drops at this scale" 0 (Sink.dropped sink);
  (* Spans nest: every end matches the innermost open begin; a finished
     run leaves none open. *)
  let stack = ref [] in
  List.iter
    (function
      | Sink.Span_begin { name; _ } -> stack := name :: !stack
      | Sink.Span_end { name; _ } -> (
          match !stack with
          | top :: rest when top = name -> stack := rest
          | _ -> Alcotest.failf "span_end %s without matching begin" name)
      | _ -> ())
    (Sink.events sink);
  Alcotest.(check (list string)) "all spans closed" [] !stack;
  Alcotest.(check bool) "crash fault counted" true (Sink.counter_total sink "fault.crash" >= 1);
  Alcotest.(check bool) "iterations spanned" true
    (List.exists
       (function Sink.Span_begin { name = "scheme.iteration"; _ } -> true | _ -> false)
       (Sink.events sink));
  (match Sink.gauge_last sink "phi" with
  | Some v -> Alcotest.(check bool) "phi gauge is finite" true (Float.is_finite v)
  | None -> Alcotest.fail "phi gauge never fired");
  (* Byte-identical replay of the timing-free export. *)
  let _, sink2 = traced_run () in
  Alcotest.(check string) "replay identical" (Export.jsonl sink)
    (Export.jsonl sink2)

(* One noisy run under all five fault kinds on a 3×3 grid, traced into
   a sink and keeping its per-iteration trace, with its metrics
   projected from the outcome: the subject of the export goldens and of
   the cross-surface consistency check. *)
let probe_run ~shards ~ragged_d =
  let g = Topology.Graph.grid ~rows:3 ~cols:3 in
  let pi = Protocol.Protocols.random_chatter g ~rounds:120 ~density:0.4 ~seed:16 in
  let adv = Netsim.Adversary.iid (Util.Rng.create 45) ~rate:0.002 in
  let faults =
    Faults.Plan.make ~key:"probe-vocabulary"
      [
        Faults.Plan.Crash { party = 4; at_iteration = 3; recover_at = Some 9 };
        Faults.Plan.Link_stall { edge = 2; from_round = 400; rounds = 60 };
        Faults.Plan.Noise_overload { factor = 4.; from_round = 1500; rounds = 200; rate = 0.002 };
        Faults.Plan.Transcript_rot { party = 1; at_iteration = 5 };
        Faults.Plan.Seed_rot { party = 7; from_iteration = 30 };
      ]
  in
  let sink = Sink.create () in
  let backend = Coding.Scheme.Live (Live.Config.make ~shards ~ragged_d ~jitter_rate:0.05 ()) in
  let config = Coding.Scheme.Config.make ~trace:true ~sink ~faults ~backend () in
  let params = Coding.Params.algorithm_1 g in
  let outcome = Coding.Scheme.run_outcome ~config ~rng:(Util.Rng.create 46) params pi adv in
  let k = params.Coding.Params.k in
  (outcome, sink, k, Coding.Report.metrics ~k ~m:(Topology.Graph.m g) outcome)

(* Digests of both timing-free exports: any change to event names,
   order, values or metric registration shows here. *)
let test_export_golden () =
  let _, sink, _, snap = probe_run ~shards:1 ~ragged_d:0 in
  Alcotest.(check int) "no drops" 0 (Sink.dropped sink);
  let digest s = Digest.to_hex (Digest.string s) in
  Alcotest.(check string) "jsonl export digest" "652ee6777e54460c3da7b97f1cce391c" (digest (Export.jsonl sink));
  Alcotest.(check string) "exact metrics digest" "3d5d7e301777812099f43915b49d6b46" (digest (Metrics.Expo.exact_json snap))

(* Every surface books the same events: trace counter totals, the
   metrics projected from the outcome and the result/diagnosis fields
   agree on the run above — at 1 and 2 shards at d = 0, and ragged
   (keyed jitter, where delayed symbols are booked as stalls and surface
   as injections).  Φ stalls are one definition read three ways: the
   sink's in-run [phi.stall] events, the projection's
   [scheme.phi_stalls] and the increments of the result's trace. *)
let test_surfaces_agree ~shards ~ragged_d () =
  let outcome, sink, k, snap = probe_run ~shards ~ragged_d in
  Alcotest.(check int) "no drops" 0 (Sink.dropped sink);
  let r, d =
    match outcome with
    | Faults.Outcome.Degraded (r, d) -> (r, d)
    | o -> Alcotest.failf "expected degraded, got %s" (Faults.Outcome.label o)
  in
  let trace = Sink.counter_total sink in
  let metric n =
    match List.find_opt (fun (m, _, _) -> m = n) snap with
    | Some (_, Metrics.Registry.Exact, Metrics.Registry.Counter v) -> v
    | _ -> Alcotest.failf "exact counter %s missing" n
  in
  let agree what values =
    match values with
    | v :: rest -> List.iter (Alcotest.(check int) what v) rest
    | [] -> ()
  in
  agree "corruptions" [ trace "net.corrupt"; metric "net.corruptions"; r.Coding.Scheme.corruptions ];
  agree "stalled" [ trace "net.stalled"; metric "net.stalled"; d.Faults.Outcome.stalled_slots ];
  agree "injected" [ trace "net.injected"; metric "net.injected"; d.Faults.Outcome.injected ];
  agree "iterations"
    [
      List.length (Obsv.Timeline.of_sink sink).Obsv.Timeline.iterations;
      metric "scheme.iterations";
      r.Coding.Scheme.iterations_run;
      d.Faults.Outcome.iterations_run;
    ];
  agree "rewinds" [ trace "rewind.requests"; metric "scheme.rewinds"; r.Coding.Scheme.rewinds ];
  agree "mp truncations"
    [ trace "mp.truncate"; metric "scheme.mp_truncations"; r.Coding.Scheme.mp_truncations ];
  let m = Topology.Graph.m (Topology.Graph.grid ~rows:3 ~cols:3) in
  agree "phi stalls"
    [
      trace "phi.stall";
      metric "scheme.phi_stalls";
      List.length
        (List.filter
           (fun d -> d < float_of_int k)
           (Coding.Potential.increments ~k ~m r.Coding.Scheme.trace));
    ];
  agree "cc" [ metric "net.cc"; r.Coding.Scheme.cc ];
  agree "rounds" [ metric "live.rounds"; r.Coding.Scheme.rounds ];
  (* The run exercises the surfaces it compares. *)
  List.iter
    (fun n -> Alcotest.(check bool) (n ^ " fired") true (trace n > 0))
    [ "net.corrupt"; "net.stalled"; "net.injected"; "mp.truncate"; "rewind.requests"; "phi.stall" ]

let () =
  Alcotest.run "trace"
    [
      ( "sink",
        [
          Alcotest.test_case "basics" `Quick test_sink_basics;
          Alcotest.test_case "late declaration" `Quick test_late_declaration;
          Alcotest.test_case "ring wrap" `Quick test_ring_wraps;
          Alcotest.test_case "ring capacity 1" `Quick test_ring_capacity_one;
          Alcotest.test_case "iter matches events" `Quick test_iter_matches_events;
          Alcotest.test_case "profile alloc words" `Quick test_profile_alloc;
          Alcotest.test_case "disabled no-op" `Quick test_disabled_noop;
        ] );
      ( "export",
        [
          Alcotest.test_case "deterministic" `Quick test_export_deterministic;
          Alcotest.test_case "summary + aggregation" `Quick test_summary_and_agg;
          Alcotest.test_case "golden digests" `Quick test_export_golden;
        ] );
      ( "instrumentation",
        [
          Alcotest.test_case "mp collision probe" `Quick test_mp_collision_probe;
          Alcotest.test_case "scheme collision probe, tau 2" `Quick test_scheme_collision_probe;
          Alcotest.test_case "traced scheme run" `Quick test_traced_scheme_run;
        ] );
      ( "sharded",
        [
          Alcotest.test_case "byte-identity vs lockstep" `Quick test_sharded_byte_identity;
          Alcotest.test_case "ragged well-ordered" `Quick test_sharded_ragged_well_ordered;
        ] );
      ( "surfaces",
        [
          Alcotest.test_case "agree at shards 1" `Quick (test_surfaces_agree ~shards:1 ~ragged_d:0);
          Alcotest.test_case "agree at shards 2" `Quick (test_surfaces_agree ~shards:2 ~ragged_d:0);
          Alcotest.test_case "agree at shards 2, d = 1" `Quick
            (test_surfaces_agree ~shards:2 ~ragged_d:1);
        ] );
    ]
