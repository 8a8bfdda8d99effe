(* TRACE — the observability layer, measured.

   Three questions, answered in order:

   1. Probe cost.  The raw transport loop of the transport bench, with
      the network's trace probes left disabled (the default — every
      probe is one branch) and then with an enabled sink.  The disabled
      number is directly comparable to the K5 full-duplex rounds/sec in
      BENCH_transport.json: tracing must not tax callers who never ask
      for it.

   2. Scheme cost.  One full Scheme.run with the sink disabled vs
      enabled — the end-to-end price of per-iteration spans, counters
      and Φ gauges.

   3. Determinism.  A traced sweep under a crash fault at jobs=1 and
      jobs=4: every trial's timing-free JSONL export and the Trace_agg
      cross-trial metrics must be byte-identical, like everything else
      the pool produces.  Also extracts where the first fault bit — the
      trace must name the phase and iteration.

   Writes BENCH_trace.json.  The smoke variant (trace_smoke.exe,
   `trace-smoke` alias inside `dune runtest`) runs one tiny traced
   execution end-to-end: sink → scheme under a crash → export →
   re-parse, checking span nesting and counter totals. *)

(* ---------- 1. raw probe overhead ---------- *)

let bench_raw g ~rounds ~sink =
  let adv = Netsim.Adversary.iid (Util.Rng.create 42) ~rate:0.01 in
  let net = Netsim.Network.create g adv in
  (match sink with None -> () | Some s -> Netsim.Network.set_trace net s);
  Gc.full_major ();
  float_of_int rounds /. Exp_common.raw_rounds net ~rounds ~send:(Exp_common.full_duplex g)

(* ---------- 2. full-scheme overhead ---------- *)

let bench_scheme g pi ~sink =
  let params = Coding.Params.algorithm_1 g in
  let adv = Netsim.Adversary.iid (Util.Rng.create 11) ~rate:0.0005 in
  let config =
    match sink with
    | None -> Coding.Scheme.Config.make ()
    | Some s -> Coding.Scheme.Config.make ~sink:s ()
  in
  Gc.full_major ();
  let t0 = Unix.gettimeofday () in
  let r = Coding.Scheme.run ~config ~rng:(Util.Rng.create 7) params pi adv in
  let wall = Unix.gettimeofday () -. t0 in
  assert r.Coding.Scheme.success;
  wall

(* ---------- 2b. sharded tracing: shards axis ---------- *)

(* One Scheme.run on the live parallel engine at [shards], optionally
   traced.  d = 0 so the traced run is the byte-identity subject. *)
let run_live g pi ~shards ~sink =
  let params = Coding.Params.algorithm_1 g in
  let adv = Netsim.Adversary.iid (Util.Rng.create 11) ~rate:0.0005 in
  let backend = Coding.Scheme.Live (Live.Config.make ~shards ~ragged_d:0 ()) in
  let config =
    match sink with
    | None -> Coding.Scheme.Config.make ~backend ()
    | Some s -> Coding.Scheme.Config.make ~backend ~sink:s ()
  in
  Gc.full_major ();
  let t0 = Unix.gettimeofday () in
  let r = Coding.Scheme.run ~config ~rng:(Util.Rng.create 7) params pi adv in
  let wall = Unix.gettimeofday () -. t0 in
  assert r.Coding.Scheme.success;
  wall

(* Wall clocks gate a hard threshold, so take the best of [reps] — the
   minimum is the least scheduling-noise-contaminated estimate. *)
let best_of reps f =
  let best = ref infinity in
  for _ = 1 to reps do
    best := Float.min !best (f ())
  done;
  !best

let lockstep_export g pi =
  let params = Coding.Params.algorithm_1 g in
  let sink = Trace.Sink.create () in
  ignore
    (Coding.Scheme.run
       ~config:(Coding.Scheme.Config.make ~sink ())
       ~rng:(Util.Rng.create 7) params pi
       (Netsim.Adversary.iid (Util.Rng.create 11) ~rate:0.0005));
  Trace.Export.jsonl ~timing:false sink

(* The shards axis: untraced live floor vs traced live at each shard
   count, plus the byte-identity check of every traced export against
   the serial lockstep oracle.  Returns per-shard rows
   (shards, wall_untraced, wall_traced, overhead_pct, identical). *)
let sharded_axis ?(reps = 3) ~rounds () =
  let g = Topology.Graph.cycle 8 in
  let pi = Exp_common.workload ~rounds g in
  let oracle = lockstep_export g pi in
  List.map
    (fun shards ->
      let wall_off = best_of reps (fun () -> run_live g pi ~shards ~sink:None) in
      let sink = ref Trace.Sink.disabled in
      let wall_on =
        best_of reps (fun () ->
            let s = Trace.Sink.create () in
            sink := s;
            run_live g pi ~shards ~sink:(Some s))
      in
      let export = Trace.Export.jsonl ~timing:false !sink in
      let overhead = 100. *. ((wall_on /. wall_off) -. 1.) in
      (shards, wall_off, wall_on, overhead, export = oracle))
    [ 1; 2; 4 ]

(* ---------- 3. traced determinism sweep ---------- *)

(* One crash fault per trial, keyed like every fault-plan in the repo so
   the schedule replays at any job count. *)
let sweep_plan ~key t =
  Faults.Plan.make
    ~key:(key ^ ":" ^ string_of_int t)
    [ Faults.Plan.Crash { party = 0; at_iteration = 2; recover_at = None } ]

let traced_trial ~key ~params ~pi ~g t =
  let sink = Trace.Sink.create () in
  let rate = 1. /. (100. *. float_of_int (Topology.Graph.m g)) in
  let config = Coding.Scheme.Config.make ~sink ~faults:(sweep_plan ~key t) () in
  let outcome =
    Coding.Scheme.run_outcome ~config
      ~rng:(Exp_common.trial_rng (key ^ ":scheme") t)
      params pi
      (Netsim.Adversary.iid (Exp_common.trial_rng (key ^ ":adv") t) ~rate)
  in
  (outcome, Trace.Export.jsonl ~timing:false sink, Trace.Summary.of_sink sink)

(* Per-trial timing-free JSONL exports (trial order) + the cross-trial
   Trace_agg — both determinism subjects. *)
let traced_sweep ~jobs ~trials ~rounds =
  let g = Topology.Graph.cycle 6 in
  let pi = Exp_common.workload ~rounds g in
  let params = Coding.Params.algorithm_1 g in
  let key = "trace:sweep" in
  let agg = Runner.Trace_agg.create () in
  let t0 = Unix.gettimeofday () in
  let rows =
    Runner.Pool.fold ~jobs ~trials ~init:[]
      ~merge:(fun acc t outcome ->
        match outcome with
        | Runner.Pool.Value (oc, jsonl, summary) ->
            Runner.Trace_agg.add agg summary;
            (oc, jsonl) :: acc
        | Runner.Pool.Raised e ->
            Format.eprintf "[trace trial %d raised: %s]@." t e.Runner.Pool.message;
            incr Exp_common.total_errors;
            acc
        | Runner.Pool.Timed_out { trial; elapsed_s } ->
            Format.eprintf "[trace trial %d timed out after %.1fs]@." trial elapsed_s;
            incr Exp_common.total_errors;
            acc)
      (traced_trial ~key ~params ~pi ~g)
  in
  (List.rev rows, agg, Unix.gettimeofday () -. t0)

let metrics_json agg =
  let open Util.Json in
  obj
    (List.map
       (fun (name, s) ->
         ( name,
           obj
             [
               ("n", int s.Runner.Accum.n);
               ("mean", num s.Runner.Accum.mean);
               ("min", num s.Runner.Accum.min);
               ("max", num s.Runner.Accum.max);
             ] ))
       (Runner.Trace_agg.metrics agg))

(* ---------- per-phase resource profile ---------- *)

(* A few traced runs on a profiled sink (Gc word deltas recorded at
   every event): Obsv.Profile folds the span pairs into per-phase
   wall/alloc rows, aggregated across trials through Trace_agg.  Wall
   clocks and allocation words are execution artifacts, so — unlike the
   sweep above — profile metrics are never determinism subjects; they
   land in BENCH_trace.json as a separate section for the observatory's
   timed (tolerance-compared) class. *)
let profile_runs ~trials ~rounds =
  let g = Topology.Graph.cycle 6 in
  let pi = Exp_common.workload ~rounds g in
  let params = Coding.Params.algorithm_1 g in
  let rate = 1. /. (100. *. float_of_int (Topology.Graph.m g)) in
  let agg = Runner.Trace_agg.create () in
  let last_rows = ref [] in
  for t = 0 to trials - 1 do
    let sink = Trace.Sink.create ~profile:true () in
    let config = Coding.Scheme.Config.make ~sink ~faults:(sweep_plan ~key:"trace:profile" t) () in
    ignore
      (Coding.Scheme.run_outcome ~config
         ~rng:(Exp_common.trial_rng "trace:profile" t)
         params pi
         (Netsim.Adversary.iid (Exp_common.trial_rng "trace:profile:adv" t) ~rate));
    let rows = Obsv.Profile.of_sink sink in
    Runner.Trace_agg.add_metrics agg (Obsv.Profile.metrics rows);
    last_rows := rows
  done;
  (!last_rows, agg)

(* ---------- first-fault attribution ---------- *)

let starts_with ~prefix s =
  String.length s >= String.length prefix && String.sub s 0 (String.length prefix) = prefix

let is_fault_event name =
  starts_with ~prefix:"fault." name
  || name = "net.stalled" || name = "net.injected" || name = "scheme.abort"

(* Walk a sink's events tracking the open iteration and phase spans; the
   first fault-class count names where the degradation began. *)
let first_fault events =
  let it = ref (-1) and phase = ref "setup" in
  let rec go = function
    | [] -> None
    | Trace.Sink.Span_begin { name; iter; _ } :: rest ->
        if name = "scheme.iteration" then it := iter
        else if starts_with ~prefix:"phase." name then phase := name;
        go rest
    | Trace.Sink.Count { name; arg; _ } :: rest ->
        if is_fault_event name then Some (name, !it, !phase, arg) else go rest
    | _ :: rest -> go rest
  in
  go events

(* A traced Degraded run, inline (not on the pool): the acceptance
   subject "the trace names the phase and iteration where the fault
   first bit". *)
let degraded_probe ~rounds =
  let g = Topology.Graph.cycle 6 in
  let pi = Exp_common.workload ~rounds g in
  let params = Coding.Params.algorithm_1 g in
  let sink = Trace.Sink.create () in
  let rate = 1. /. (100. *. float_of_int (Topology.Graph.m g)) in
  let config =
    Coding.Scheme.Config.make ~sink ~faults:(sweep_plan ~key:"trace:degraded" 0) ()
  in
  let outcome =
    Coding.Scheme.run_outcome ~config ~rng:(Util.Rng.create 9) params pi
      (Netsim.Adversary.iid (Util.Rng.create 10) ~rate)
  in
  (outcome, sink, first_fault (Trace.Sink.events sink))

(* ---------- driver ---------- *)

let run_with ?(raw_rounds = 200_000) ?(scheme_rounds = 120) ?(trials = 4) ?(sweep_rounds = 80)
    ?(jobs_hi = 4) ?(sharded_gate = true) ?(gate_pct = 10.) ?(json = Some "BENCH_trace.json") () =
  Exp_common.heading "TRACE |  observability probes: overhead off/on + deterministic export";
  let g = Topology.Graph.clique 5 in
  Exp_common.subheading
    (Printf.sprintf "raw transport, probes disabled vs enabled sink, %d rounds (K5)" raw_rounds);
  let rps_off = bench_raw g ~rounds:raw_rounds ~sink:None in
  let enabled_sink = Trace.Sink.create () in
  let rps_on = bench_raw g ~rounds:raw_rounds ~sink:(Some enabled_sink) in
  let raw_overhead = 100. *. (1. -. (rps_on /. rps_off)) in
  Format.printf "  %-22s %14.0f rounds/sec   (vs BENCH_transport.json raw full)@." "disabled"
    rps_off;
  Format.printf "  %-22s %14.0f rounds/sec   (%d events, %d dropped)@." "enabled" rps_on
    (Trace.Sink.seq enabled_sink) (Trace.Sink.dropped enabled_sink);
  Format.printf "  enabled-probe overhead %.1f%%@." raw_overhead;
  Exp_common.subheading "full Scheme.run, sink disabled vs enabled (K5, iid 0.05%)";
  let pi = Exp_common.workload ~rounds:scheme_rounds g in
  let wall_off = bench_scheme g pi ~sink:None in
  let scheme_sink = Trace.Sink.create () in
  let wall_on = bench_scheme g pi ~sink:(Some scheme_sink) in
  let scheme_overhead = 100. *. ((wall_on /. wall_off) -. 1.) in
  Format.printf "  disabled %.3fs   enabled %.3fs (%d events)   overhead %+.1f%%@." wall_off
    wall_on (Trace.Sink.seq scheme_sink) scheme_overhead;
  Exp_common.subheading
    (Printf.sprintf
       "sharded tracing: live engine, shards axis (untraced floor vs merged trace, gate %.0f%% \
        at shards=2)"
       gate_pct);
  let shard_rows = sharded_axis ~rounds:scheme_rounds () in
  List.iter
    (fun (shards, off, on, ov, identical) ->
      Format.printf "  shards=%d  untraced %.3fs  traced %.3fs  overhead %+6.1f%%  %s@." shards
        off on ov
        (if identical then "export == lockstep oracle" else "EXPORT DIVERGED"))
    shard_rows;
  List.iter
    (fun (shards, _, _, _, identical) ->
      if not identical then
        failwith
          (Printf.sprintf "trace: sharded export at shards=%d diverged from the lockstep oracle"
             shards))
    shard_rows;
  (match List.find_opt (fun (s, _, _, _, _) -> s = 2) shard_rows with
  | Some (_, _, _, ov, _) when sharded_gate && ov > gate_pct ->
      failwith
        (Printf.sprintf "trace: sharded tracing overhead %.1f%% at shards=2 exceeds the %.0f%% gate"
           ov gate_pct)
  | _ -> ());
  Exp_common.subheading
    (Printf.sprintf "traced sweep under a crash fault, jobs=1 vs jobs=%d, %d trials" jobs_hi
       trials);
  let rows1, agg1, wall1 = traced_sweep ~jobs:1 ~trials ~rounds:sweep_rounds in
  let rowsh, aggh, wallh = traced_sweep ~jobs:jobs_hi ~trials ~rounds:sweep_rounds in
  let exports1 = List.map snd rows1 and exportsh = List.map snd rowsh in
  if exports1 <> exportsh then
    failwith "trace determinism violated: per-trial exports differ across job counts";
  if metrics_json agg1 <> metrics_json aggh then
    failwith "trace determinism violated: aggregated metrics differ across job counts";
  let outcomes label rows =
    let c, d, a =
      List.fold_left
        (fun (c, d, a) (oc, _) ->
          match oc with
          | Faults.Outcome.Completed _ -> (c + 1, d, a)
          | Faults.Outcome.Degraded _ -> (c, d + 1, a)
          | Faults.Outcome.Aborted _ -> (c, d, a + 1))
        (0, 0, 0) rows
    in
    Format.printf "  %-8s C/D/A %d/%d/%d@." label c d a
  in
  outcomes "jobs=1" rows1;
  outcomes (Printf.sprintf "jobs=%d" jobs_hi) rowsh;
  Format.printf "  wall jobs=1: %.2fs  wall jobs=%d: %.2fs  deterministic: exports byte-identical@."
    wall1 jobs_hi wallh;
  Exp_common.subheading
    (Printf.sprintf "per-phase resource profile (profiled sink, %d trials)" trials);
  let prof_rows, prof_agg = profile_runs ~trials ~rounds:sweep_rounds in
  Format.printf "%a" Obsv.Profile.pp prof_rows;
  let degraded_outcome, _, ff = degraded_probe ~rounds:sweep_rounds in
  (match Faults.Outcome.diagnosis degraded_outcome with
  | Some _ -> ()
  | None -> failwith "trace: crash-fault probe run unexpectedly clean");
  (match ff with
  | Some (name, iter, phase, party) ->
      Format.printf "  first fault: %s at iteration %d in %s (party %d)@." name iter phase party
  | None -> failwith "trace: degraded run's trace contains no fault event");
  (match json with
  | None -> ()
  | Some path ->
      let open Util.Json in
      let ff_json =
        match ff with
        | None -> "null"
        | Some (name, iter, phase, party) ->
            obj
              [
                ("event", str name);
                ("iteration", int iter);
                ("phase", str phase);
                ("party", int party);
              ]
      in
      Runner.Report.write_file ~path
        (obj
           [
             ("bench", str "trace");
             ("raw_rounds", int raw_rounds);
             ("raw_disabled_rounds_per_sec", num rps_off);
             ("raw_enabled_rounds_per_sec", num rps_on);
             ("raw_enabled_overhead_pct", num raw_overhead);
             ("scheme_wall_disabled_s", num wall_off);
             ("scheme_wall_enabled_s", num wall_on);
             ("scheme_enabled_overhead_pct", num scheme_overhead);
             ("traced_trials", int trials);
             ("jobs_compared", arr [ int 1; int jobs_hi ]);
             ("deterministic", bool true);
             ( "sharded",
               arr
                 (List.map
                    (fun (shards, off, on, ov, identical) ->
                      obj
                        [
                          ("shards", int shards);
                          ("wall_untraced_s", num off);
                          ("wall_traced_s", num on);
                          ("overhead_pct", num ov);
                          ("export_identical", bool identical);
                        ])
                    shard_rows) );
             ("sharded_gate_pct", num gate_pct);
             ("first_fault", ff_json);
             ("trace_metrics", metrics_json agg1);
             ("profile_metrics", metrics_json prof_agg);
           ]);
      Format.printf "@.[wrote %s]@." path);
  (rows1, agg1, ff)

let run () = ignore (run_with ())

(* ---------- smoke: end-to-end re-parse ---------- *)

(* Minimal JSONL field extractor — enough for the export's flat one-line
   objects (string values have no escapes in practice: event names). *)
let find_sub s pat =
  let n = String.length s and m = String.length pat in
  let rec go i = if i + m > n then None else if String.sub s i m = pat then Some (i + m) else go (i + 1) in
  go 0

let field line key =
  match find_sub line ("\"" ^ key ^ "\":") with
  | None -> None
  | Some i ->
      let n = String.length line in
      if i < n && line.[i] = '"' then begin
        let k = ref (i + 1) in
        while !k < n && line.[!k] <> '"' do
          incr k
        done;
        Some (String.sub line (i + 1) (!k - i - 1))
      end
      else begin
        let k = ref i in
        while !k < n && line.[!k] <> ',' && line.[!k] <> '}' do
          incr k
        done;
        Some (String.sub line i (!k - i))
      end

let non_empty_lines s =
  String.split_on_char '\n' s |> List.filter (fun l -> String.length l > 0)

(* Span discipline: every span_end must match the innermost open span;
   a fully finished run leaves nothing open. *)
let check_nesting lines =
  let stack = ref [] in
  List.iter
    (fun line ->
      match (field line "kind", field line "name") with
      | Some "span_begin", Some nm -> stack := nm :: !stack
      | Some "span_end", Some nm -> (
          match !stack with
          | top :: rest when top = nm -> stack := rest
          | _ -> failwith ("trace-smoke: span_end without matching begin: " ^ nm))
      | _ -> ())
    lines;
  if !stack <> [] then failwith "trace-smoke: spans left open at end of trace"

let counter_sums lines =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun line ->
      match (field line "kind", field line "name", field line "value") with
      | Some "count", Some nm, Some v ->
          Hashtbl.replace tbl nm (int_of_string v + Option.value ~default:0 (Hashtbl.find_opt tbl nm))
      | _ -> ())
    lines;
  tbl

let smoke () =
  (* The full pipeline at toy scale, JSON suppressed; includes the
     jobs=1 vs jobs=4 export comparison and the first-fault probe. *)
  (* The shards-axis byte-identity check still runs at toy scale; only
     the wall-clock gate is waived (noise-dominated at 40 rounds). *)
  let _, _, ff =
    run_with ~raw_rounds:400 ~scheme_rounds:40 ~trials:2 ~sweep_rounds:40 ~sharded_gate:false
      ~json:None ()
  in
  (match ff with
  | Some ("fault.crash", iter, "phase.fault_prepass", 0) when iter >= 0 -> ()
  | Some (name, iter, phase, party) ->
      failwith
        (Printf.sprintf "trace-smoke: unexpected first fault %s@%d in %s (party %d)" name iter
           phase party)
  | None -> failwith "trace-smoke: no first fault found");
  (* One traced run re-parsed from its JSONL export. *)
  let _, sink, _ = degraded_probe ~rounds:40 in
  if Trace.Sink.dropped sink > 0 then failwith "trace-smoke: ring dropped events at toy scale";
  let lines = non_empty_lines (Trace.Export.jsonl ~timing:false sink) in
  check_nesting lines;
  let sums = counter_sums lines in
  List.iter
    (fun (name, total) ->
      let reparsed = Option.value ~default:0 (Hashtbl.find_opt sums name) in
      if reparsed <> total then
        failwith
          (Printf.sprintf "trace-smoke: counter %s re-parses to %d, sink says %d" name reparsed
             total))
    (Trace.Sink.counter_totals sink);
  if Trace.Sink.counter_total sink "fault.crash" < 1 then
    failwith "trace-smoke: crash fault left no fault.crash count";
  (match Trace.Sink.gauge_last sink "phi" with
  | Some _ -> ()
  | None -> failwith "trace-smoke: no phi gauge recorded");
  Format.printf "@.[trace-smoke ok]@."
