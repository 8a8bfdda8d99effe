(* METRICS — online telemetry cost and determinism (lib/metrics).

   Three measurements, written to BENCH_metrics.json:

   - probe overhead: the live engine's floor loop
     (Exp_common.engine_floor) with metrics disabled vs enabled,
     interleaved best-of pairs (Exp_common.best_pair) so machine drift
     hits both sides equally.  The acceptance bar is <= 5% wall-time
     cost with every per-round live.* / net.* probe armed — the always-on
     telemetry must not undo the transport speedups (rows are Timed;
     the observatory compares them under tolerance, the check here is
     the hard gate);
   - merge determinism: a scheme sweep where every trial collects into
     its own registry and the pool collects into one of its own; the
     per-trial snapshots merged in trial order plus the pool snapshot
     must serialize to byte-identical exact JSON at jobs=1 and jobs=4
     (Timed metrics — spins, steals, latencies — are excluded by
     class, which is exactly the split the observatory applies);
   - shard invariance: one live-backend scheme run per shard count in
     {1, 2, 4} at d=0; the exact (count-valued) part of each snapshot
     must be byte-identical — the shard count only keys the engine's
     jitter, and the Exact telemetry may not notice. *)

type overhead_row = {
  key : string;
  per_sec_off : float;
  per_sec_on : float;
  pct : float; (* wall cost of the armed probes; negative = noise *)
}

(* The engine floor (Exp_common) with metrics disabled vs an armed
   registry, timed as interleaved best-of-[reps] pairs.  Armed on the
   clock: live.round_ns, the lag histogram, net.active_links and the
   net.noise_rate gauge.  live.rounds is booked at shutdown, off the
   clock; the net.* counts are booked by Scheme, which the floor does
   not run. *)
let overhead_row ~key g ~rounds ~reps =
  let floor metrics () = fst (Exp_common.engine_floor ~metrics g ~rounds) in
  let p =
    Exp_common.best_pair ~reps ~off:(floor Metrics.Registry.disabled)
      ~on:(fun () -> floor (Metrics.Registry.create ()) ())
  in
  {
    key;
    per_sec_off = Exp_common.per_sec ~rounds p.Exp_common.off;
    per_sec_on = Exp_common.per_sec ~rounds p.Exp_common.on;
    pct = Exp_common.overhead_pct p;
  }

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
  let module J = Util.Json in
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
  let rows = [ overhead_row ~key:"serial" g ~rounds ~reps ] in
  Format.printf "  %-10s | %12s %12s %9s@." "engine" "off r/s" "on r/s" "cost";
  List.iter
    (fun r ->
      Format.printf "  %-10s | %12.0f %12.0f %8.2f%%@." r.key r.per_sec_off r.per_sec_on r.pct)
    rows;
  List.iter
    (fun r ->
      Exp_common.check_overhead ~what:("metrics: " ^ r.key ^ " probe") ~bound:max_overhead_pct
        r.pct)
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
  Exp_common.write_json json (json_of rows ~merge_ok ~shard_ok ~exact_series ~timed_series);
  (rows, merge_ok, shard_ok)

(* The 5% gate needs an estimate whose run-to-run spread is well below
   5%.  On a 2-core x86-64 box, a best-of-3 pair over a 3,000-round
   floor (about 60 ms a side) read from -1.9% to +5.0% over three
   batches of 20 runs; best-of-12 pairs over a 10,000-round floor
   (about 0.19 s a side) read from -0.5% to +1.5% over 50 runs in a
   quiet stretch, and up to +5.7% once in 20 in a noisy one. *)
let run () =
  ignore
    (run_with ~grid_side:16 ~rounds:10_000 ~reps:12 ~trials:8 ~chatter_rounds:100
       ~max_overhead_pct:5. ~json:(Some "BENCH_metrics.json") ())

(* Tiny variant for `dune runtest` (metrics-smoke alias): determinism
   is asserted exactly; the overhead bound is loosened — a 400-round
   loop under runtest load measures noise, not cost (the 5% gate is
   the full experiment's job).  Run alone, the serial row's cost has a
   median of about −13% over 10 runs; under a parallel `dune runtest`
   a best-of-2 sometimes caught one side on a descheduled core, so each
   side takes the best of 5 interleaved reps. *)
let smoke ?json () =
  let rows, merge_ok, shard_ok =
    run_with ~grid_side:6 ~rounds:400 ~reps:5 ~trials:4 ~chatter_rounds:60
      ~max_overhead_pct:60. ~json ()
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
  assert (String.ends_with ~suffix:"# EOF\n" om);
  (match Util.Json.parse_opt (Metrics.Expo.json snap) with
  | Some (Util.Json.Obj fields) ->
      assert (List.mem_assoc "exact" fields && List.mem_assoc "timed" fields)
  | _ -> assert false);
  Format.printf "@.[metrics-smoke ok]@."
