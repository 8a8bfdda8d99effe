(* TRACE — the observability layer, measured.

   Four questions, answered in order:

   1. Probe cost.  The raw transport loop of the transport bench, with
      the network's trace probes left disabled (the default — every
      probe is one branch) and then with an enabled sink.  The disabled
      number is directly comparable to the K5 full-duplex rounds/sec in
      BENCH_transport.json: tracing must not tax callers who never ask
      for it.

   2. Scheme cost.  One full Scheme.run with the sink disabled vs
      enabled — the end-to-end price of per-iteration spans, counters
      and Φ gauges.

   3. Shard invariance.  A traced run on the live backend at shards
      1, 2 and 4 (d = 0) must export byte-identically to the lockstep
      oracle.

   4. Determinism.  A traced sweep under a crash fault at jobs=1 and
      jobs=4: every trial's timing-free JSONL export and the Trace_agg
      cross-trial metrics must be byte-identical, like everything else
      the pool produces.  Also extracts where the first fault bit — the
      trace must name the phase and iteration.

   Writes BENCH_trace.json.  The smoke variant (`main.exe smoke trace`,
   `trace-smoke` alias inside `dune runtest`) runs one tiny traced
   execution end-to-end: sink → scheme under a crash → export →
   re-parse (Obsv.Timeline.of_jsonl), checking span nesting and counter
   totals. *)

(* Every off/on comparison below is one interleaved best-of-3 pair
   (Exp_common.best_pair); the enabled side records into a fresh sink on
   each run, and the last one is returned for the event counts. *)
let traced_pair ~off ~on =
  let last = ref Trace.Sink.disabled in
  let p =
    Exp_common.best_pair ~reps:3 ~off ~on:(fun () ->
        let s = Trace.Sink.create () in
        last := s;
        on s)
  in
  (p, !last)

(* ---------- 1. raw probe overhead ---------- *)

let bench_raw g ~rounds =
  let send = Exp_common.full_duplex g in
  let net () = Netsim.Network.create g (Netsim.Adversary.iid (Util.Rng.create 42) ~rate:0.01) in
  traced_pair
    ~off:(fun () -> Exp_common.raw_rounds (net ()) ~rounds ~send)
    ~on:(fun sink ->
      let net = net () in
      Netsim.Network.set_trace net sink;
      Exp_common.raw_rounds net ~rounds ~send)

(* ---------- 2. full-scheme overhead ---------- *)

let scheme_sample ?sink g pi =
  let r, s = Exp_common.scheme_run ?sink g pi in
  assert r.Coding.Scheme.success;
  s

let bench_scheme g pi =
  traced_pair ~off:(fun () -> scheme_sample g pi) ~on:(fun sink -> scheme_sample ~sink g pi)

(* ---------- 3. shard invariance of the export ---------- *)

let traced_export ?backend g pi =
  let sink = Trace.Sink.create () in
  ignore (Exp_common.scheme_run ?backend ~sink g pi);
  Trace.Export.jsonl ~timing:false sink

(* Per shard count, whether the traced run on the live backend (d = 0)
   exports byte-identically to the lockstep oracle. *)
let shard_identity ~rounds =
  let g = Topology.Graph.cycle 8 in
  let pi = Exp_common.workload ~rounds g in
  let oracle = traced_export g pi in
  List.map
    (fun shards ->
      let backend = Coding.Scheme.Live (Live.Config.make ~shards ~ragged_d:0 ()) in
      (shards, traced_export ~backend g pi = oracle))
    [ 1; 2; 4 ]

(* ---------- 4. traced determinism sweep ---------- *)

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
  let rows, wall =
    Exp_common.time @@ fun () ->
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
  (List.rev rows, agg, wall)

let metrics_json agg =
  Util.Json.obj
    (List.map (fun (name, s) -> (name, Exp_common.accum_json s)) (Runner.Trace_agg.metrics agg))

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

let is_fault_event name =
  String.starts_with ~prefix:"fault." name
  || name = "net.stalled" || name = "net.injected" || name = "scheme.abort"

(* The first fault-class count in emission order, placed by
   Obsv.Timeline: (event, iteration or -1 outside every iteration,
   innermost phase or "setup", party). *)
let first_fault sink =
  let open Obsv.Timeline in
  let tl = of_sink sink in
  let pick best iter { phase; ev } =
    match best with
    | Some (seq, _) when seq < ev.seq -> best
    | _ when ev.kind = Count && is_fault_event ev.name ->
        Some (ev.seq, (ev.name, iter, (if phase = "" then "setup" else phase), ev.arg))
    | _ -> best
  in
  List.fold_left
    (fun b it -> List.fold_left (fun b a -> pick b it.index a) b it.events)
    (List.fold_left (fun b a -> pick b (-1) a) None tl.setup)
    tl.iterations
  |> Option.map snd

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
  (outcome, sink, first_fault sink)

(* ---------- driver ---------- *)

let run_with ?(raw_rounds = 200_000) ?(scheme_rounds = 120) ?(trials = 4) ?(sweep_rounds = 80)
    ?(jobs_hi = 4) ?(json = Some "BENCH_trace.json") () =
  Exp_common.heading "TRACE |  observability probes: overhead off/on + deterministic export";
  let g = Topology.Graph.clique 5 in
  Exp_common.subheading
    (Printf.sprintf "raw transport, probes disabled vs enabled sink, %d rounds (K5)" raw_rounds);
  let raw, enabled_sink = bench_raw g ~rounds:raw_rounds in
  let rps_off = Exp_common.per_sec ~rounds:raw_rounds raw.Exp_common.off in
  let rps_on = Exp_common.per_sec ~rounds:raw_rounds raw.Exp_common.on in
  let raw_overhead = Exp_common.overhead_pct raw in
  Format.printf "  %-22s %14.0f rounds/sec   (vs BENCH_transport.json raw full)@." "disabled"
    rps_off;
  Format.printf "  %-22s %14.0f rounds/sec   (%d events, %d dropped)@." "enabled" rps_on
    (Trace.Sink.seq enabled_sink) (Trace.Sink.dropped enabled_sink);
  Format.printf "  enabled-probe overhead %+.1f%%@." raw_overhead;
  Exp_common.subheading "full Scheme.run, sink disabled vs enabled (K5, iid 0.05%)";
  let pi = Exp_common.workload ~rounds:scheme_rounds g in
  let scheme, scheme_sink = bench_scheme g pi in
  let wall_off = scheme.Exp_common.off.Exp_common.wall_s in
  let wall_on = scheme.Exp_common.on.Exp_common.wall_s in
  let scheme_overhead = Exp_common.overhead_pct scheme in
  Format.printf "  disabled %.3fs   enabled %.3fs (%d events)   overhead %+.1f%%@." wall_off
    wall_on (Trace.Sink.seq scheme_sink) scheme_overhead;
  Exp_common.subheading "shard invariance: traced live backend at d = 0 vs the lockstep export";
  let shard_rows = shard_identity ~rounds:scheme_rounds in
  List.iter
    (fun (shards, identical) ->
      Format.printf "  shards=%d  %s@." shards
        (if identical then "export == lockstep oracle" else "EXPORT DIVERGED");
      if not identical then
        failwith
          (Printf.sprintf "trace: export at shards=%d diverged from the lockstep oracle" shards))
    shard_rows;
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
  (let open Util.Json in
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
   Exp_common.write_json json
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
                 (fun (shards, identical) ->
                   obj [ ("shards", int shards); ("export_identical", bool identical) ])
                 shard_rows) );
          ("first_fault", ff_json);
          ("trace_metrics", metrics_json agg1);
          ("profile_metrics", metrics_json prof_agg);
        ]));
  (rows1, agg1, ff)

let run () = ignore (run_with ())

(* ---------- smoke: end-to-end re-parse ---------- *)

let smoke ?json () =
  (* The full pipeline at toy scale, JSON suppressed; includes the
     shard-invariance check, the jobs=1 vs jobs=4 export comparison and
     the first-fault probe. *)
  let _, _, ff = run_with ~raw_rounds:400 ~scheme_rounds:40 ~trials:2 ~sweep_rounds:40 ~json () in
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
  (* Obsv.Timeline re-parses the export, recording span-nesting and
     parse errors and recomputing the counter sums. *)
  let tl = Obsv.Timeline.of_jsonl (Trace.Export.jsonl ~timing:false sink) in
  (match tl.Obsv.Timeline.errors with
  | [] -> ()
  | e :: _ -> failwith ("trace-smoke: re-parsed export: " ^ e));
  List.iter
    (fun (name, total) ->
      let reparsed = Option.value ~default:0 (List.assoc_opt name tl.Obsv.Timeline.counter_sums) in
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
