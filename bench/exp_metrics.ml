(* METRICS — online telemetry cost and determinism (lib/metrics).

   Three measurements, written to BENCH_metrics.json:

   - probe overhead: the raw live-engine round loop (exp_live's floor
     workload) with metrics disabled vs enabled, interleaved best-of
     pairs so machine drift hits both sides equally.  The acceptance
     bar is <= 5% rounds/sec cost with every live.* / net.* probe
     armed — the always-on telemetry must not undo the transport
     speedups (rows are Timed; the observatory compares them under
     tolerance, the assert here is the hard gate);
   - merge determinism: a scheme sweep where every trial collects into
     its own registry and the pool collects into one of its own; the
     per-trial snapshots merged in trial order plus the pool snapshot
     must serialize to byte-identical exact JSON at jobs=1 and jobs=4
     (Timed metrics — spins, steals, latencies — are excluded by
     class, which is exactly the split the observatory applies);
   - shard invariance: one live-backend scheme run per shard count in
     {1, 2, 4} at d=0; the exact (count-valued) part of each snapshot
     must be byte-identical — the engine may parallelize, the Exact
     telemetry may not notice. *)

module Active = Netsim.Network.Active

type overhead_row = {
  key : string;
  per_sec_off : float;
  per_sec_on : float;
  pct : float; (* (off - on) / off * 100; negative = noise *)
}

(* The engine's overhead floor (see exp_live): every party sends one
   bit to its first neighbor each round, receivers drain their parity
   share.  [metrics] arms the per-round probes (live.rounds,
   live.round_ns, drift/lag histograms, net.* counters and gauges). *)
let bench_rounds g ~shards ~serial ~rounds ~metrics =
  let n = Topology.Graph.n g in
  let net = Netsim.Network.create g Netsim.Adversary.Silent in
  Netsim.Network.set_metrics net metrics;
  let ex =
    Live.Exec.create ~net
      ~config:(Live.Config.make ~shards ~force_serial:serial ())
      ~metrics
      ~weights:(Array.init n (fun v -> Topology.Graph.degree g v))
      ()
  in
  Fun.protect
    ~finally:(fun () -> Live.Exec.shutdown ex)
    (fun () ->
      let out_dir =
        Array.init n (fun v ->
            let nb = Topology.Graph.neighbors g v in
            if Array.length nb = 0 then -1 else Topology.Graph.dir_id g ~src:v ~dst:nb.(0))
      in
      let t0 = Unix.gettimeofday () in
      for r = 0 to rounds - 1 do
        Live.Exec.round ex
          ~write:(fun ~shard buf ->
            let lo, hi = Live.Exec.bounds ex ~shard in
            for v = lo to hi - 1 do
              if out_dir.(v) >= 0 then Active.send buf ~dir:out_dir.(v) (r land 1 = 0)
            done)
          ~read:(fun ~shard master ->
            let seen = ref 0 in
            Active.iter master (fun ~dir _ -> if dir mod 2 = shard mod 2 then incr seen);
            ignore !seen)
          ()
      done;
      Live.Exec.join ex;
      float_of_int rounds /. (Unix.gettimeofday () -. t0))

(* Interleaved best-of-[reps] pairs: each rep measures off then on, and
   the best of each side is compared — the standard way to subtract
   scheduler noise from a small relative effect. *)
let overhead_row ~key g ~shards ~serial ~rounds ~reps =
  let best_off = ref 0. and best_on = ref 0. in
  for _ = 1 to reps do
    best_off := Float.max !best_off
        (bench_rounds g ~shards ~serial ~rounds ~metrics:Metrics.Registry.disabled);
    best_on := Float.max !best_on
        (bench_rounds g ~shards ~serial ~rounds ~metrics:(Metrics.Registry.create ()))
  done;
  { key; per_sec_off = !best_off; per_sec_on = !best_on;
    pct = 100. *. (!best_off -. !best_on) /. !best_off }

(* ---------- merge determinism (jobs sweep) ---------- *)

let scheme_params g = Coding.Params.algorithm_1 g

(* One trial collecting into its own registry; the snapshot is the
   trial's return value, so the pool hands them back in trial order. *)
let trial_snapshot ~key ~rounds g t =
  let reg = Metrics.Registry.create () in
  let pi = Exp_common.workload ~rounds g in
  let rate = 1. /. (200. *. float_of_int (Topology.Graph.m g)) in
  ignore
    (Coding.Scheme.run_outcome
       ~config:(Coding.Scheme.Config.make ~metrics:reg ())
       ~rng:(Exp_common.trial_rng key t)
       (scheme_params g) pi
       (Netsim.Adversary.iid (Exp_common.trial_rng (key ^ ":adv") t) ~rate));
  Metrics.Registry.snapshot reg

(* The merged exact JSON for one job count: per-trial snapshots merged
   in trial order, with the pool's own registry (runner.trials etc.)
   merged in last. *)
let merged_exact ~jobs ~trials ~rounds g =
  let pool_reg = Metrics.Registry.create () in
  let snaps_rev =
    Runner.Pool.fold ~metrics:pool_reg ~jobs ~trials ~init:[]
      ~merge:(fun acc _t outcome ->
        match outcome with
        | Runner.Pool.Value s -> s :: acc
        | Runner.Pool.Raised e -> failwith ("metrics trial raised: " ^ e.Runner.Pool.message)
        | Runner.Pool.Timed_out _ -> failwith "metrics trial timed out")
      (fun t -> trial_snapshot ~key:"metrics:merge" ~rounds g t)
  in
  let merged =
    Metrics.Registry.merge (List.rev snaps_rev @ [ Metrics.Registry.snapshot pool_reg ])
  in
  (Metrics.Expo.exact_json merged, merged)

(* ---------- shard invariance (live backend, d = 0) ---------- *)

let shard_exact ~shards ~rounds g =
  let reg = Metrics.Registry.create () in
  let pi = Exp_common.workload ~rounds g in
  let rate = 1. /. (200. *. float_of_int (Topology.Graph.m g)) in
  let backend = Coding.Scheme.Live (Live.Config.make ~shards ()) in
  ignore
    (Coding.Scheme.run_outcome
       ~config:(Coding.Scheme.Config.make ~metrics:reg ~backend ())
       ~rng:(Util.Rng.create 7) (scheme_params g) pi
       (Netsim.Adversary.iid (Util.Rng.create 8) ~rate));
  Metrics.Expo.exact_json (Metrics.Registry.snapshot reg)

(* ---------- harness ---------- *)

let json_of rows ~merge_ok ~shard_ok ~exact_series ~timed_series =
  let module J = Runner.Report.Json in
  J.obj
    [
      ("bench", J.str "metrics");
      ( "overhead",
        J.arr
          (List.map
             (fun r ->
               J.obj
                 [
                   ("key", J.str r.key);
                   ("rounds_per_sec_off", J.num r.per_sec_off);
                   ("rounds_per_sec_on", J.num r.per_sec_on);
                   ("overhead_pct", J.num r.pct);
                 ])
             rows) );
      ("merge_deterministic", J.int (if merge_ok then 1 else 0));
      ("shard_invariant", J.int (if shard_ok then 1 else 0));
      ("exact_series", J.int exact_series);
      ("timed_series", J.int timed_series);
    ]

let run_with ~grid_side ~rounds ~reps ~trials ~chatter_rounds ~max_overhead_pct ~json () =
  Exp_common.heading "METRICS  |  online telemetry: probe overhead + snapshot determinism";
  let g = Topology.Graph.grid ~rows:grid_side ~cols:grid_side in
  let rows =
    [
      overhead_row ~key:"serial" g ~shards:1 ~serial:true ~rounds ~reps;
      overhead_row ~key:"shards2" g ~shards:2 ~serial:false ~rounds ~reps;
    ]
  in
  Format.printf "  %-10s | %12s %12s %9s@." "engine" "off r/s" "on r/s" "cost";
  List.iter
    (fun r ->
      Format.printf "  %-10s | %12.0f %12.0f %8.2f%%@." r.key r.per_sec_off r.per_sec_on r.pct)
    rows;
  List.iter
    (fun r ->
      if r.pct > max_overhead_pct then
        failwith
          (Printf.sprintf "metrics: %s probe overhead %.2f%% exceeds %.1f%%" r.key r.pct
             max_overhead_pct))
    rows;
  let g_scheme = Topology.Graph.line 8 in
  let j1, merged = merged_exact ~jobs:1 ~trials ~rounds:chatter_rounds g_scheme in
  let j4, _ = merged_exact ~jobs:4 ~trials ~rounds:chatter_rounds g_scheme in
  let merge_ok = String.equal j1 j4 in
  let exact_series = List.length (Metrics.Registry.exact_only merged) in
  let timed_series = List.length (Metrics.Registry.timed_only merged) in
  Exp_common.subheading "merged snapshot determinism";
  Format.printf "  jobs=1 vs jobs=4 (%d trials): exact JSON %s (%d exact / %d timed series)@."
    trials
    (if merge_ok then "byte-identical" else "DIFFERS")
    exact_series timed_series;
  let shard_snaps =
    List.map (fun s -> (s, shard_exact ~shards:s ~rounds:chatter_rounds g_scheme)) [ 1; 2; 4 ]
  in
  let base = snd (List.hd shard_snaps) in
  let shard_ok = List.for_all (fun (_, s) -> String.equal s base) shard_snaps in
  Format.printf "  live backend shards 1/2/4 at d=0: exact JSON %s@."
    (if shard_ok then "byte-identical" else "DIFFERS");
  if not merge_ok then failwith "metrics: merged exact snapshot differs between jobs=1 and jobs=4";
  if not shard_ok then failwith "metrics: exact snapshot differs across shard counts at d=0";
  (match json with
  | None -> ()
  | Some path ->
      Runner.Report.write_file ~path
        (json_of rows ~merge_ok ~shard_ok ~exact_series ~timed_series);
      Format.printf "@.[wrote %s]@." path);
  (rows, merge_ok, shard_ok)

let run () =
  ignore
    (run_with ~grid_side:16 ~rounds:3_000 ~reps:3 ~trials:8 ~chatter_rounds:100
       ~max_overhead_pct:5. ~json:(Some "BENCH_metrics.json") ())

(* Tiny variant for `dune runtest` (metrics-smoke alias): determinism
   is asserted exactly; the overhead bound is loosened — a 400-round
   loop under runtest load measures noise, not cost (the 5% gate is
   the full experiment's job).  Run alone, the serial row's cost has a
   median of about −13% over 10 runs; under a parallel `dune runtest`
   a best-of-2 sometimes caught one side on a descheduled core, so each
   side takes the best of 5 interleaved reps. *)
let smoke () =
  let rows, merge_ok, shard_ok =
    run_with ~grid_side:6 ~rounds:400 ~reps:5 ~trials:4 ~chatter_rounds:60
      ~max_overhead_pct:60. ~json:None ()
  in
  List.iter (fun r -> assert (r.per_sec_off > 0. && r.per_sec_on > 0.)) rows;
  assert (merge_ok && shard_ok);
  (* The exposition writers round-trip: OpenMetrics ends in # EOF and
     the JSONL line parses back as an object with both classes. *)
  let reg = Metrics.Registry.create () in
  Metrics.Registry.incr (Metrics.Registry.counter reg "smoke.count");
  Metrics.Registry.observe (Metrics.Registry.hist reg "smoke.h") 17;
  let snap = Metrics.Registry.snapshot reg in
  let om = Metrics.Expo.openmetrics snap in
  assert (String.length om > 0);
  let ends_with ~suffix s =
    let n = String.length s and m = String.length suffix in
    n >= m && String.sub s (n - m) m = suffix
  in
  assert (ends_with ~suffix:"# EOF\n" om);
  (match Obsv.Json.parse_opt (Metrics.Expo.json snap) with
  | Some (Obsv.Json.Obj fields) ->
      assert (List.mem_assoc "exact" fields && List.mem_assoc "timed" fields)
  | _ -> assert false);
  Format.printf "@.[metrics-smoke ok]@."
