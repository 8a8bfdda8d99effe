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
   - shard determinism: one live-backend scheme run per shard count in
     {1, 2, 4} under keyed jitter (d = 1), each projected snapshot
     against its pinned digest.  The shard count keys the jitter units,
     so it is read only at d > 0: at d = 0 the three runs would be one
     execution.  Under jitter every meeting-points step hashes, so the
     pins also guard the full meeting-points path. *)

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
        | Runner.Pool.Raised e -> failwith ("metrics trial raised: " ^ e.Runner.Pool.message))
      (fun t ->
        run_snapshot ~rng:(Exp_common.trial_rng key t)
          ~adv_rng:(Exp_common.trial_rng (key ^ ":adv") t)
          ~rounds g)
  in
  Metrics.Expo.exact_json (Metrics.Registry.merge (List.rev snaps_rev))

(* ---------- shard determinism (live backend, d = 1) ---------- *)

(* The digest of one keyed-jitter run's exact snapshot.  A fixed
   workload, so the full run and the smoke check the same pins. *)
let shard_digest ~shards g =
  let backend =
    Coding.Scheme.Live (Live.Config.make ~shards ~ragged_d:1 ~jitter_rate:0.02 ())
  in
  Metrics.Expo.exact_json
    (run_snapshot ~backend ~rng:(Util.Rng.create 7) ~adv_rng:(Util.Rng.create 8) ~rounds:60 g)
  |> Digest.string |> Digest.to_hex

let shard_pins =
  [
    (1, "42ca2d2d17cfbf9f87ea0cce9bd682b0");
    (2, "f43793d7abd925c00cfbe343a0f0daec");
    (4, "f262c561497c7f949e5febeb4145a3ca");
  ]

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
  let shard_ok =
    List.for_all (fun (shards, pin) -> String.equal (shard_digest ~shards g) pin) shard_pins
  in
  Format.printf "  live backend shards 1/2/4 at d=1: exact JSON %s@."
    (if shard_ok then "matches the pinned digests" else "DIFFERS from a pinned digest");
  if not merge_ok then failwith "metrics: merged exact snapshot differs between jobs=1 and jobs=4";
  if not shard_ok then failwith "metrics: exact snapshot differs from its pin at d=1";
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
