(* METRICS — metric snapshot determinism (lib/metrics).

   A run's metrics are a projection of its outcome
   (Coding.Report.metrics), so nothing is metered on the round path and
   there is no probe cost left to time: the overhead gate this bench
   once ran (an engine floor with per-round probes armed vs disarmed,
   gated at 5%) was retired with the probes.  Two checks remain,
   written to BENCH_metrics.json:

   - merge determinism: a scheme sweep where every trial projects its
     outcome to a snapshot; the snapshots merged in trial order must
     serialize to byte-identical exact JSON at jobs=1 and jobs=4;
   - shard invariance: one live-backend scheme run per shard count in
     {1, 2, 4} at d=0; the projected snapshots must be byte-identical
     — the shard count only keys the engine's jitter, and the outcome
     may not notice. *)

let scheme_params g = Coding.Params.algorithm_1 g

(* One traced run's projected snapshot (the trace carries Φ). *)
let run_snapshot ?backend ~rng ~adv_rng ~rounds g =
  let pi = Exp_common.workload ~rounds g in
  let rate = 1. /. (200. *. float_of_int (Topology.Graph.m g)) in
  let params = scheme_params g in
  Coding.Scheme.run_outcome
    ~config:(Coding.Scheme.Config.make ~trace:true ?backend ())
    ~rng params pi
    (Netsim.Adversary.iid adv_rng ~rate)
  |> Coding.Report.metrics ~k:params.Coding.Params.k ~m:(Topology.Graph.m g)

(* ---------- merge determinism (jobs sweep) ---------- *)

(* The per-trial snapshots, merged in trial order, for one job count. *)
let merged_exact ~jobs ~trials ~rounds g =
  let key = "metrics:merge" in
  let snaps_rev =
    Runner.Pool.fold ~jobs ~trials ~init:[]
      ~merge:(fun acc _t outcome ->
        match outcome with
        | Runner.Pool.Value s -> s :: acc
        | Runner.Pool.Raised e -> failwith ("metrics trial raised: " ^ e.Runner.Pool.message)
        | Runner.Pool.Timed_out _ -> failwith "metrics trial timed out")
      (fun t ->
        run_snapshot ~rng:(Exp_common.trial_rng key t)
          ~adv_rng:(Exp_common.trial_rng (key ^ ":adv") t)
          ~rounds g)
  in
  Metrics.Expo.exact_json (Metrics.Registry.merge (List.rev snaps_rev))

(* ---------- shard invariance (live backend, d = 0) ---------- *)

let shard_exact ~shards ~rounds g =
  let backend = Coding.Scheme.Live (Live.Config.make ~shards ()) in
  Metrics.Expo.exact_json
    (run_snapshot ~backend ~rng:(Util.Rng.create 7) ~adv_rng:(Util.Rng.create 8) ~rounds g)

(* ---------- harness ---------- *)

let json_of ~merge_ok ~shard_ok =
  let module J = Util.Json in
  J.obj
    [
      ("bench", J.str "metrics");
      ("merge_deterministic", J.int (if merge_ok then 1 else 0));
      ("shard_invariant", J.int (if shard_ok then 1 else 0));
    ]

let run_with ~trials ~chatter_rounds ~json () =
  Exp_common.heading "METRICS  |  metric snapshots: merge and shard determinism";
  let g = Topology.Graph.line 8 in
  let j1 = merged_exact ~jobs:1 ~trials ~rounds:chatter_rounds g in
  let j4 = merged_exact ~jobs:4 ~trials ~rounds:chatter_rounds g in
  let merge_ok = String.equal j1 j4 in
  Exp_common.subheading "merged snapshot determinism";
  Format.printf "  jobs=1 vs jobs=4 (%d trials): exact JSON %s@." trials
    (if merge_ok then "byte-identical" else "DIFFERS");
  let shard_snaps =
    List.map (fun s -> (s, shard_exact ~shards:s ~rounds:chatter_rounds g)) [ 1; 2; 4 ]
  in
  let base = snd (List.hd shard_snaps) in
  let shard_ok = List.for_all (fun (_, s) -> String.equal s base) shard_snaps in
  Format.printf "  live backend shards 1/2/4 at d=0: exact JSON %s@."
    (if shard_ok then "byte-identical" else "DIFFERS");
  if not merge_ok then failwith "metrics: merged exact snapshot differs between jobs=1 and jobs=4";
  if not shard_ok then failwith "metrics: exact snapshot differs across shard counts at d=0";
  Exp_common.write_json json (json_of ~merge_ok ~shard_ok)

let run () = run_with ~trials:8 ~chatter_rounds:100 ~json:(Some "BENCH_metrics.json") ()

(* Tiny variant for `dune runtest` (metrics-smoke alias): the same
   determinism checks, and the exposition writers round-trip —
   OpenMetrics ends in # EOF and the JSONL line parses back as an
   object with both classes. *)
let smoke ?json () =
  run_with ~trials:4 ~chatter_rounds:60 ~json ();
  let snap = [ ("smoke.count", Metrics.Registry.Exact, Metrics.Registry.Counter 1) ] in
  let om = Metrics.Expo.openmetrics snap in
  assert (String.ends_with ~suffix:"# EOF\n" om);
  (match Util.Json.parse_opt (Metrics.Expo.json snap) with
  | Some (Util.Json.Obj fields) ->
      assert (List.mem_assoc "exact" fields && List.mem_assoc "timed" fields)
  | _ -> assert false);
  Format.printf "@.[metrics-smoke ok]@."
