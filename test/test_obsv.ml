(* Tests for lib/obsv: the JSON reader, timeline reconstruction from a
   live sink and from its JSONL export, postmortem blame attribution
   against a seeded fault plan (ground truth known), the
   potential-invariant analyzer, per-phase profiling, and the regression
   observatory's classify/flatten/diff/round-trip machinery. *)

module Json = Util.Json
module Timeline = Obsv.Timeline
module Postmortem = Obsv.Postmortem
module Profile = Obsv.Profile
module Obs = Obsv.Observatory
module Sink = Trace.Sink

(* ---------- json ---------- *)

let test_json_parse () =
  let j =
    Json.parse {|{"a": 1, "neg": -2.5e1, "b": [true, null, "x"], "c": {"d": "e\"f"}, "z": 0}|}
  in
  Alcotest.(check (option (float 1e-9))) "int" (Some 1.) (Option.bind (Json.member "a" j) Json.to_float);
  Alcotest.(check (option (float 1e-9))) "scientific" (Some (-25.))
    (Option.bind (Json.member "neg" j) Json.to_float);
  (match Json.member "b" j with
  | Some arr -> (
      match Json.to_list arr with
      | [ t; n; x ] ->
          Alcotest.(check (option (float 1e-9))) "bool as 1" (Some 1.) (Json.to_float t);
          Alcotest.(check bool) "null" true (n = Json.Null);
          Alcotest.(check (option string)) "string" (Some "x") (Json.to_string x)
      | l -> Alcotest.failf "expected 3 elements, got %d" (List.length l))
  | None -> Alcotest.fail "b missing");
  Alcotest.(check (option string)) "escaped string" (Some "e\"f")
    (Option.bind (Json.member "c" j) (fun c -> Option.bind (Json.member "d" c) Json.to_string));
  List.iter
    (fun s -> Alcotest.(check bool) ("rejects " ^ s) true (Json.parse_opt s = None))
    [ ""; "{"; "tru"; "{\"a\":}"; "[1,]" ]

let test_json_edges () =
  (* \uXXXX escapes decode as raw bytes; \\ stays one backslash *)
  Alcotest.(check (option string)) "u-escape" (Some "A\tB")
    (Json.to_string (Json.parse "\"A\\u0009B\""));
  Alcotest.(check (option string)) "backslash" (Some {|a\b|}) (Json.to_string (Json.parse {|"a\\b"|}));
  Alcotest.(check (option string)) "solidus" (Some "/") (Json.to_string (Json.parse {|"\/"|}));
  (* scientific notation, both signs and bare exponents *)
  Alcotest.(check (option (float 1e-12))) "1e-3" (Some 0.001) (Json.to_float (Json.parse "1e-3"));
  Alcotest.(check (option (float 1e-9))) "1E+2" (Some 100.) (Json.to_float (Json.parse "1E+2"));
  Alcotest.(check (option (float 1e-9))) "frac exp" (Some 12.5) (Json.to_float (Json.parse "0.125e2"));
  (* deeply nested arrays survive and come back with the right depth *)
  let depth = 200 in
  let deep = String.make depth '[' ^ "7" ^ String.make depth ']' in
  let rec unwrap d j =
    match j with Json.Arr [ inner ] -> unwrap (d + 1) inner | leaf -> (d, leaf)
  in
  let d, leaf = unwrap 0 (Json.parse deep) in
  Alcotest.(check int) "nesting depth" depth d;
  Alcotest.(check (option (float 1e-9))) "nested leaf" (Some 7.) (Json.to_float leaf);
  (* trailing garbage is rejected, whitespace is not *)
  List.iter
    (fun s -> Alcotest.(check bool) ("rejects " ^ s) true (Json.parse_opt s = None))
    [ "1 2"; "{} x"; "[1] ]"; "\"a\"b"; {|"\u00ZZ"|}; {|"\q"|}; {|"\u0_41"|}; {|"\u00_4"|};
      {|"\u+041"|}; {|"\u-041"|} ];
  Alcotest.(check (option string)) "mixed-case hex" (Some "\171")
    (Json.to_string (Json.parse {|"\u00aB"|}));
  Alcotest.(check bool) "trailing ws ok" true (Json.parse_opt "  [1, 2]  \n" <> None)

(* ---------- a traced run with a known injected fault ---------- *)

let traced_run ?(party = 2) ?(at_iteration = 3) ?(faulty = true) ?(rate = 0.) () =
  let g = Topology.Graph.cycle 6 in
  let pi = Protocol.Protocols.random_chatter g ~rounds:40 ~density:0.5 ~seed:3 in
  let params = Coding.Params.algorithm_1 g in
  let sink = Sink.create () in
  let faults =
    if faulty then
      Faults.Plan.make ~key:"test-obsv"
        [ Faults.Plan.Crash { party; at_iteration; recover_at = None } ]
    else Faults.Plan.empty
  in
  let adv =
    if rate > 0. then Netsim.Adversary.iid (Util.Rng.create 6) ~rate else Netsim.Adversary.Silent
  in
  let config = Coding.Scheme.Config.make ~sink ~faults () in
  let outcome = Coding.Scheme.run_outcome ~config ~rng:(Util.Rng.create 5) params pi adv in
  (outcome, sink)

(* ---------- timeline ---------- *)

let test_timeline_of_sink () =
  let _, sink = traced_run () in
  let tl = Timeline.of_sink sink in
  Alcotest.(check (list string)) "no nesting errors" [] tl.Timeline.errors;
  Alcotest.(check bool) "not truncated" false tl.Timeline.truncated;
  Alcotest.(check bool) "iterations found" true (tl.Timeline.iterations <> []);
  (* Iteration indices are the span tags, in order. *)
  List.iteri
    (fun i (it : Timeline.iteration) -> Alcotest.(check int) "index" i it.Timeline.index)
    tl.Timeline.iterations;
  (* Retained events reconcile with the sink's drop-proof totals. *)
  Alcotest.(check (list (pair string int))) "counter sums = totals" tl.Timeline.counter_totals
    tl.Timeline.counter_sums;
  (* Every iteration that gauged phi appears in the trajectory. *)
  let traj = Timeline.phi_trajectory tl in
  Alcotest.(check bool) "phi trajectory nonempty" true (traj <> []);
  Alcotest.(check bool) "trajectory in iteration order" true
    (List.sort (fun (a, _) (b, _) -> compare a b) traj = traj)

let test_timeline_of_jsonl () =
  let _, sink = traced_run () in
  let live = Timeline.of_sink sink in
  let reparsed = Timeline.of_jsonl (Trace.Export.jsonl ~timing:false sink) in
  Alcotest.(check (list string)) "no parse errors" [] reparsed.Timeline.errors;
  Alcotest.(check int) "same iteration count"
    (List.length live.Timeline.iterations)
    (List.length reparsed.Timeline.iterations);
  Alcotest.(check (list (pair string int))) "same counter sums" live.Timeline.counter_sums
    reparsed.Timeline.counter_sums;
  (* An export carries no side tables; sums are the totals. *)
  Alcotest.(check (list (pair string int))) "reparsed totals = sums" reparsed.Timeline.counter_sums
    reparsed.Timeline.counter_totals;
  List.iter2
    (fun (a : Timeline.iteration) (b : Timeline.iteration) ->
      Alcotest.(check int) "same index" a.Timeline.index b.Timeline.index;
      Alcotest.(check bool) "same counts" true (a.Timeline.counts = b.Timeline.counts);
      Alcotest.(check bool) "same stall flag" true (a.Timeline.stalled = b.Timeline.stalled))
    live.Timeline.iterations reparsed.Timeline.iterations

(* ---------- postmortem ---------- *)

let test_postmortem_seeded_fault () =
  (* Ground truth: the only deviation in the whole run is the injected
     crash of party 2 at iteration 3 (adversary silent). *)
  let outcome, sink = traced_run ~party:2 ~at_iteration:3 () in
  Alcotest.(check bool) "run degraded" true
    (match outcome with Faults.Outcome.Degraded _ -> true | _ -> false);
  let pm = Postmortem.analyze (Timeline.of_sink sink) in
  (match pm.Postmortem.blame with
  | Some b ->
      Alcotest.(check bool) "cause" true (b.Postmortem.cause = Postmortem.Injected_fault);
      Alcotest.(check string) "event" "fault.crash" b.Postmortem.event;
      Alcotest.(check int) "iteration" 3 b.Postmortem.iteration;
      Alcotest.(check string) "phase" "phase.fault_prepass" b.Postmortem.phase;
      Alcotest.(check int) "party" 2 b.Postmortem.party
  | None -> Alcotest.fail "no blame on a seeded degraded run");
  Alcotest.(check int) "every stall explained" 0 pm.Postmortem.unexplained_stalls;
  Alcotest.(check (list string)) "no violations" []
    (List.map (fun f -> f.Postmortem.message) (Postmortem.violations pm))

let test_postmortem_clean_run () =
  let outcome, sink = traced_run ~faulty:false () in
  Alcotest.(check bool) "run completed" true
    (match outcome with Faults.Outcome.Completed _ -> true | _ -> false);
  let pm = Postmortem.analyze (Timeline.of_sink sink) in
  Alcotest.(check bool) "clean" true (Postmortem.clean pm);
  Alcotest.(check bool) "no blame" true (pm.Postmortem.blame = None);
  Alcotest.(check int) "no stalls" 0 pm.Postmortem.stalls;
  Alcotest.(check (list string)) "zero findings" []
    (List.map (fun f -> f.Postmortem.message) pm.Postmortem.findings)

(* Hand-built traces: a potential stall with no booked cause is an
   analyzer violation; the same stall next to booked noise is not. *)
let stall_sink ~with_noise =
  let t = Sink.create () in
  let it = Sink.declare "scheme.iteration" and phi = Sink.declare "phi" in
  let stall = Sink.declare "phi.stall" and corrupt = Sink.declare "net.corrupt" in
  Sink.span_begin t ~id:it ~iter:0;
  Sink.gauge t ~id:phi ~iter:0 10.;
  Sink.span_end t ~id:it ~iter:0;
  Sink.span_begin t ~id:it ~iter:1;
  if with_noise then Sink.count t ~id:corrupt ~iter:57 ~arg:4 1;
  Sink.gauge t ~id:phi ~iter:1 10.;
  Sink.count t ~id:stall ~iter:1 1;
  Sink.span_end t ~id:it ~iter:1;
  t

let test_postmortem_stall_invariant () =
  let pm = Postmortem.analyze (Timeline.of_sink (stall_sink ~with_noise:false)) in
  Alcotest.(check int) "stall counted" 1 pm.Postmortem.stalls;
  Alcotest.(check int) "stall unexplained" 1 pm.Postmortem.unexplained_stalls;
  (match Postmortem.violations pm with
  | [ f ] -> Alcotest.(check string) "code" "phi.stall.unexplained" f.Postmortem.code
  | l -> Alcotest.failf "expected exactly one violation, got %d" (List.length l));
  let pm = Postmortem.analyze (Timeline.of_sink (stall_sink ~with_noise:true)) in
  Alcotest.(check int) "explained by booked noise" 0 pm.Postmortem.unexplained_stalls;
  Alcotest.(check (list string)) "no violations" []
    (List.map (fun f -> f.Postmortem.code) (Postmortem.violations pm));
  (* The noise event is also the blame, carrying its link and round. *)
  match pm.Postmortem.blame with
  | Some b ->
      Alcotest.(check bool) "cause" true (b.Postmortem.cause = Postmortem.Adversary_noise);
      Alcotest.(check int) "iteration (positional)" 1 b.Postmortem.iteration;
      Alcotest.(check int) "link" 4 b.Postmortem.link;
      Alcotest.(check int) "round" 57 b.Postmortem.round
  | None -> Alcotest.fail "booked noise left no blame"

(* ---------- ragged live traces ---------- *)

(* A live-backend run with keyed scheduling jitter (ragged_d > 0) and a
   silent adversary: every
   booked deviation is insdel noise induced by raggedness, so the
   analyzer must attribute it to the jitter source (Injected_fault via
   net.stalled / net.injected), never to adversary noise. *)
let ragged_traced_run ~d =
  let g = Topology.Graph.line 8 in
  let pi = Protocol.Protocols.random_chatter g ~rounds:60 ~density:0.5 ~seed:3 in
  let params = Coding.Params.algorithm_1 g in
  let sink = Sink.create () in
  let backend = Coding.Scheme.Live (Live.Config.make ~shards:4 ~ragged_d:d ~jitter_rate:0.01 ()) in
  let config = Coding.Scheme.Config.make ~sink ~backend () in
  let outcome =
    Coding.Scheme.run_outcome ~config ~rng:(Util.Rng.create 11) params pi
      Netsim.Adversary.Silent
  in
  (outcome, sink)

let test_postmortem_ragged_attribution () =
  let outcome, sink = ragged_traced_run ~d:2 in
  let diag =
    match Faults.Outcome.diagnosis outcome with
    | Some d -> d
    | None -> Alcotest.fail "ragged run with jitter should be degraded"
  in
  Alcotest.(check bool) "jitter booked insdel noise" true
    (diag.Faults.Outcome.stalled_slots + diag.Faults.Outcome.injected > 0);
  let tl = Timeline.of_sink sink in
  let total n = Option.value ~default:0 (List.assoc_opt n tl.Timeline.counter_totals) in
  Alcotest.(check int) "no adversary corruption booked" 0 (total "net.corrupt");
  Alcotest.(check bool) "stall/injection events traced" true
    (total "net.stalled" + total "net.injected" > 0);
  let pm = Postmortem.analyze tl in
  (match pm.Postmortem.blame with
  | Some b ->
      Alcotest.(check bool) "jitter blamed as injected fault" true
        (b.Postmortem.cause = Postmortem.Injected_fault);
      Alcotest.(check bool) "blame names the insdel event" true
        (b.Postmortem.event = "net.stalled" || b.Postmortem.event = "net.injected")
  | None -> Alcotest.fail "booked jitter noise left no blame");
  (* Every blame-class total the analyzer reports is an insdel event —
     the jitter source never shows up as Adversary_noise. *)
  List.iter
    (fun (name, _) ->
      Alcotest.(check bool) (name ^ " is not adversary-class") false (name = "net.corrupt"))
    pm.Postmortem.blame_counts

let test_postmortem_ragged_d0_clean () =
  (* d = 0 disables jitter: the same live backend completes nominally
     and the analyzer has nothing to report. *)
  let outcome, sink = ragged_traced_run ~d:0 in
  Alcotest.(check bool) "d=0 completes" true
    (match outcome with Faults.Outcome.Completed _ -> true | _ -> false);
  let pm = Postmortem.analyze (Timeline.of_sink sink) in
  Alcotest.(check bool) "clean" true (Postmortem.clean pm);
  Alcotest.(check bool) "no blame" true (pm.Postmortem.blame = None)

(* ---------- profile ---------- *)

let test_profile_rows () =
  let _, sink = traced_run () in
  let rows = Profile.of_sink sink in
  let find n = List.find_opt (fun (r : Profile.row) -> r.Profile.name = n) rows in
  (match find "scheme.iteration" with
  | Some r ->
      Alcotest.(check bool) "iterations counted" true (r.Profile.count > 1);
      Alcotest.(check bool) "wall nonnegative" true (r.Profile.wall_s >= 0.);
      (* Unprofiled sink: alloc columns stay zero. *)
      Alcotest.(check (float 0.)) "no alloc data" 0. r.Profile.minor_words
  | None -> Alcotest.fail "scheme.iteration row missing");
  Alcotest.(check bool) "phase rows present" true
    (find "phase.meeting_points" <> None && find "phase.simulation" <> None);
  let names = List.map fst (Profile.metrics rows) in
  Alcotest.(check bool) "metric names sorted" true (names = List.sort compare names);
  Alcotest.(check bool) "prof-prefixed" true
    (List.for_all (fun n -> String.length n > 5 && String.sub n 0 5 = "prof.") names)

(* ---------- observatory ---------- *)

let test_observatory_classify_flatten () =
  Alcotest.(check bool) "wall is timed" true (Obs.classify "t.scheme_wall_enabled_s" = `Timed);
  Alcotest.(check bool) "per_sec is timed" true (Obs.classify "t.raw_rounds_per_sec" = `Timed);
  Alcotest.(check bool) "words is timed" true (Obs.classify "t.prof.x.minor_words" = `Timed);
  Alcotest.(check bool) "rss is timed" true (Obs.classify "t.rows[torus:4096].peak_rss_kb" = `Timed);
  Alcotest.(check bool) "heap is timed" true (Obs.classify "t.rows[grid:1024].heap_top_kb" = `Timed);
  Alcotest.(check bool) "jobs is ignored" true (Obs.classify "t.jobs" = `Ignored);
  Alcotest.(check bool) "successes is exact" true (Obs.classify "t.successes" = `Exact);
  let j =
    Json.parse
      {|{"a": 1, "wall_s": 2.5, "jobs": 4, "ok": true,
         "sweep": [{"key": "k1", "v": 1}, {"key": "k2", "v": 2}],
         "rows": [{"topology": "cycle", "transport": "slots", "rps": 9}],
         "plain": [5, 6]}|}
  in
  let m = Obs.flatten ~label:"t" j in
  let get n = List.assoc_opt n m in
  Alcotest.(check (option (float 1e-9))) "scalar" (Some 1.) (get "t.a");
  Alcotest.(check (option (float 1e-9))) "bool as 1" (Some 1.) (get "t.ok");
  Alcotest.(check (option (float 1e-9))) "key-discriminated" (Some 2.) (get "t.sweep[k2].v");
  Alcotest.(check (option (float 1e-9))) "topology:transport" (Some 9.)
    (get "t.rows[cycle:slots].rps");
  Alcotest.(check (option (float 1e-9))) "index-labelled" (Some 6.) (get "t.plain[1]");
  Alcotest.(check (option (float 1e-9))) "jobs dropped" None (get "t.jobs");
  Alcotest.(check bool) "sorted by name" true (List.map fst m = List.sort compare (List.map fst m))

let entry run exact timed = { Obs.run; benches = [ "x" ]; exact; timed }

let test_observatory_diff () =
  let prev = entry 1 [ ("e.a", 1.); ("e.gone", 5.) ] [ ("w.t", 1.0) ] in
  (* exact change + exact disappearance + new exact + timed within tolerance *)
  let cur = entry 2 [ ("e.a", 2.); ("e.new", 7.) ] [ ("w.t", 2.0) ] in
  let deltas = Obs.diff ~tolerance:1.5 ~prev cur in
  let reg = List.map (fun d -> d.Obs.metric) (Obs.regressions deltas) in
  Alcotest.(check (list string)) "exact change + disappearance regress" [ "e.a"; "e.gone" ] reg;
  (* timed beyond tolerance regresses *)
  let cur = entry 2 [ ("e.a", 1.); ("e.gone", 5.) ] [ ("w.t", 2.6) ] in
  let reg = Obs.regressions (Obs.diff ~tolerance:1.5 ~prev cur) in
  Alcotest.(check (list string)) "timed drift regresses" [ "w.t" ]
    (List.map (fun d -> d.Obs.metric) reg);
  (* identical entries are clean *)
  Alcotest.(check int) "identical clean" 0
    (List.length (Obs.regressions (Obs.diff ~prev prev)))

let test_observatory_roundtrip () =
  let e = entry 3 [ ("e.a", 1.5); ("e.b", 0.) ] [ ("w.t", 2.25) ] in
  let line = Obs.entry_to_jsonl e in
  (match Option.bind (Json.parse_opt line) Obs.entry_of_json with
  | Some e' ->
      Alcotest.(check int) "run" e.Obs.run e'.Obs.run;
      Alcotest.(check (list string)) "benches" e.Obs.benches e'.Obs.benches;
      Alcotest.(check bool) "exact metrics" true (e.Obs.exact = e'.Obs.exact);
      Alcotest.(check bool) "timed metrics" true (e.Obs.timed = e'.Obs.timed)
  | None -> Alcotest.fail "jsonl entry does not re-parse");
  let path = Filename.temp_file "obsv_history" ".jsonl" in
  Sys.remove path;
  Alcotest.(check int) "missing history is empty" 0 (List.length (Obs.load_history ~path));
  Obs.append_history ~path e;
  Obs.append_history ~path { e with Obs.run = 4 };
  (match Obs.load_history ~path with
  | [ a; b ] ->
      Alcotest.(check int) "first run" 3 a.Obs.run;
      Alcotest.(check int) "second run" 4 b.Obs.run
  | l -> Alcotest.failf "expected 2 entries, got %d" (List.length l));
  Sys.remove path

let test_observatory_history_cap () =
  let path = Filename.temp_file "obsv_history_cap" ".jsonl" in
  Sys.remove path;
  for run = 1 to 5 do
    Obs.append_history ~max_entries:3 ~path (entry run [ ("e.a", float_of_int run) ] [])
  done;
  (* Only the newest 3 entries survive, with their run numbers intact. *)
  Alcotest.(check (list int)) "rotated to newest 3" [ 3; 4; 5 ]
    (List.map (fun e -> e.Obs.run) (Obs.load_history ~path));
  (* Uncapped appends still accumulate past the previous cap. *)
  Obs.append_history ~path (entry 6 [] []);
  Alcotest.(check int) "uncapped append grows" 4 (List.length (Obs.load_history ~path));
  Alcotest.(check bool) "cap < 1 rejected" true
    (match Obs.append_history ~max_entries:0 ~path (entry 7 [] []) with
    | () -> false
    | exception Invalid_argument _ -> true);
  Sys.remove path

let test_observatory_render () =
  let prev = entry 1 [ ("e.a", 1.) ] [ ("w.t", 1.0) ] in
  let cur = entry 2 [ ("e.a", 2.) ] [ ("w.t", 1.1) ] in
  let deltas = Obs.diff ~prev cur in
  let md = Obs.render_markdown ~prev:(Some prev) ~cur deltas in
  let contains hay needle =
    let n = String.length needle and h = String.length hay in
    let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "marker present" true (contains md Obs.timing_marker);
  Alcotest.(check bool) "regression listed" true (contains md "`e.a`");
  let exact = Obs.exact_section md in
  Alcotest.(check bool) "exact section stops at marker" false (contains exact "w.t");
  Alcotest.(check bool) "exact section keeps exact table" true (contains exact "`e.a`")

let () =
  Alcotest.run "obsv"
    [
      ( "json",
        [
          Alcotest.test_case "parse" `Quick test_json_parse;
          Alcotest.test_case "edge cases" `Quick test_json_edges;
        ] );
      ( "timeline",
        [
          Alcotest.test_case "of_sink" `Quick test_timeline_of_sink;
          Alcotest.test_case "of_jsonl round-trip" `Quick test_timeline_of_jsonl;
        ] );
      ( "postmortem",
        [
          Alcotest.test_case "seeded fault attribution" `Quick test_postmortem_seeded_fault;
          Alcotest.test_case "clean run, zero findings" `Quick test_postmortem_clean_run;
          Alcotest.test_case "stall invariant" `Quick test_postmortem_stall_invariant;
          Alcotest.test_case "ragged jitter attribution" `Quick
            test_postmortem_ragged_attribution;
          Alcotest.test_case "ragged d=0 clean" `Quick test_postmortem_ragged_d0_clean;
        ] );
      ("profile", [ Alcotest.test_case "rows + metrics" `Quick test_profile_rows ]);
      ( "observatory",
        [
          Alcotest.test_case "classify + flatten" `Quick test_observatory_classify_flatten;
          Alcotest.test_case "diff" `Quick test_observatory_diff;
          Alcotest.test_case "history round-trip" `Quick test_observatory_roundtrip;
          Alcotest.test_case "history cap/rotate" `Quick test_observatory_history_cap;
          Alcotest.test_case "render" `Quick test_observatory_render;
        ] );
    ]
