(* LIVE — the concurrent execution runtime (lib/live).

   Three measurements, written to BENCH_live.json:

   - raw engine rounds/sec vs shard count on K5, line16 and a 32x32
     grid (1024 parties): every party speaks to its first neighbor
     every round, so the per-round work is O(n) split across shards —
     the knee where barrier cost eats the sharding win is the number
     this sweep exposes;
   - barrier overhead: the same workload on the serial engine vs the
     parallel engine at each shard count (overhead_x > 1 means the
     domains + barrier cost more than the parallelism returns — the
     expected verdict on small graphs and few cores);
   - the ragged sweep, d in {0, 1, 2, 4}: full scheme executions on the
     deterministic force-serial engine with keyed jitter, reporting the
     induced insdel rate ((stalled + injected) / cc) and whether the
     simulation still succeeds.  These rows are keyed ragged_* and are
     exactly reproducible (the jitter stream is keyed, not timed), so
     the observatory classifies them Exact; one additional genuinely
     parallel row is keyed jitter_* so the observatory ignores its
     scheduling-dependent values.

   The serial d=0 engine is the lockstep reference; its equivalence to
   the historical loop is the live test suite's differential job, not
   this bench's. *)

type round_row = {
  topo : string;
  n : int;
  shards : int;
  serial : bool;
  per_sec : float;
  overhead_x : float; (* serial wall / this wall; > 1 = parallel slower *)
  dropped : int;
}

type ragged_row = {
  d : int;
  rate : float; (* per-round per-shard lag probability (jitter_rate) *)
  success : bool;
  insdel_rate : float;
  stalled : int;
  injected : int;
  cc : int;
  iterations : int;
}

(* Rounds/sec and jitter drops of the engine floor (Exp_common). *)
let bench_rounds g ~shards ~serial ~rounds =
  let s, dropped = Exp_common.engine_floor g ~shards ~serial ~rounds in
  (Exp_common.per_sec ~rounds s, dropped)

let topologies ~grid_side =
  [
    ("K5", Topology.Graph.clique 5);
    ("line16", Topology.Graph.line 16);
    (Printf.sprintf "grid%d" (grid_side * grid_side),
     Topology.Graph.grid ~rows:grid_side ~cols:grid_side);
  ]

let round_sweep ~grid_side ~rounds ~shard_counts =
  List.concat_map
    (fun (topo, g) ->
      let n = Topology.Graph.n g in
      let serial_per_sec, _ = bench_rounds g ~shards:1 ~serial:true ~rounds in
      let serial_row =
        { topo; n; shards = 1; serial = true; per_sec = serial_per_sec; overhead_x = 1.;
          dropped = 0 }
      in
      serial_row
      :: List.map
           (fun shards ->
             let per_sec, dropped = bench_rounds g ~shards ~serial:false ~rounds in
             { topo; n; shards; serial = false; per_sec;
               overhead_x = serial_per_sec /. per_sec; dropped })
           shard_counts)
    (topologies ~grid_side)

(* One full scheme execution on the live engine at ragged depth [d]
   under a silent adversary: the insdel noise the engine's lag induced,
   or None when the run left no result. *)
let ragged_run ?(force_serial = true) ?(shards = 4) ~chatter_rounds ~jitter_rate ~d g =
  let pi = Protocol.Protocols.random_chatter g ~rounds:chatter_rounds ~density:0.5 ~seed:3 in
  let backend =
    Coding.Scheme.Live (Live.Config.make ~shards ~ragged_d:d ~jitter_rate ~force_serial ())
  in
  let outcome =
    Coding.Scheme.run_outcome
      ~config:(Coding.Scheme.Config.make ~backend ())
      ~rng:(Util.Rng.create 11) (Coding.Params.algorithm_1 g) pi Netsim.Adversary.Silent
  in
  let stalled, injected =
    match Faults.Outcome.diagnosis outcome with
    | Some diag -> (diag.Faults.Outcome.stalled_slots, diag.Faults.Outcome.injected)
    | None -> (0, 0)
  in
  Option.map
    (fun result ->
      let cc = result.Coding.Scheme.cc in
      {
        d;
        rate = jitter_rate;
        success = result.Coding.Scheme.success;
        insdel_rate = (if cc = 0 then 0. else float_of_int (stalled + injected) /. float_of_int cc);
        stalled;
        injected;
        cc;
        iterations = result.Coding.Scheme.iterations_run;
      })
    (Faults.Outcome.result outcome)

(* A genuinely parallel ragged run (2 domains, d = 2, the engine's
   default lag rate): numbers depend on the machine's scheduling, so
   they are published under jitter_* (observatory: Ignored) purely as a
   live artifact to eyeball.  Returns (insdel rate, success as 0/1). *)
let parallel_jitter_probe ~chatter_rounds g =
  match ragged_run ~force_serial:false ~shards:2 ~chatter_rounds ~jitter_rate:0.05 ~d:2 g with
  | None -> (0., 0.)
  | Some r -> (r.insdel_rate, if r.success then 1. else 0.)

let json_of rounds_rows ragged_rows (jitter_rate_obs, jitter_success) =
  let module J = Util.Json in
  let rr r =
    J.obj
      [
        ("key", J.str (Printf.sprintf "%s:%s%d" r.topo (if r.serial then "serial" else "shards") r.shards));
        ("n", J.int r.n);
        ("rounds_per_sec", J.num r.per_sec);
        ("overhead_x", J.num r.overhead_x);
        ("dropped_at_d0", J.int r.dropped);
      ]
  in
  let gr r =
    J.obj
      [
        ("key", J.str (Printf.sprintf "d%d:rate%.3f" r.d r.rate));
        ("ragged_d", J.int r.d);
        ("ragged_success", J.int (if r.success then 1 else 0));
        ("ragged_insdel_rate", J.num r.insdel_rate);
        ("ragged_stalled", J.int r.stalled);
        ("ragged_injected", J.int r.injected);
        ("ragged_cc", J.int r.cc);
        ("ragged_iterations", J.int r.iterations);
      ]
  in
  J.obj
    [
      ("bench", J.str "live");
      ("rounds", J.arr (List.map rr rounds_rows));
      ("ragged_serial_sweep", J.arr (List.map gr ragged_rows));
      ("jitter_parallel_insdel_rate", J.num jitter_rate_obs);
      ("jitter_parallel_success", J.num jitter_success);
    ]

let run_with ~grid_side ~rounds ~shard_counts ~chatter_rounds ~ragged_ds ~json () =
  Exp_common.heading "LIVE  |  concurrent runtime: shards, barrier overhead, ragged synchrony";
  let rounds_rows = round_sweep ~grid_side ~rounds ~shard_counts in
  Format.printf "  %-10s %6s %8s | %12s %10s %8s@." "topology" "n" "engine" "rounds/s"
    "overhead" "dropped";
  List.iter
    (fun r ->
      Format.printf "  %-10s %6d %8s | %12.0f %9.2fx %8d@." r.topo r.n
        (if r.serial then "serial" else Printf.sprintf "%dd" r.shards)
        r.per_sec r.overhead_x r.dropped;
      assert (r.dropped = 0) (* d = 0: the lockstep window never drops *))
    rounds_rows;
  let g_ragged = Topology.Graph.line 8 in
  (* Two fixed lag frequencies bracketing the scheme's tolerance on
     line8 (threshold sits between them): the gentle rate shows ragged
     noise being absorbed, the harsh one shows the overload verdict.
     Depth d sets how far a lagged symbol lands, not how often lags
     fire, so insdel rate tracks the frequency axis. *)
  let gentle, harsh = (0.005, 0.02) in
  let ragged_rows =
    List.concat_map
      (fun rate ->
        List.filter_map
          (fun d ->
            (* d = 0 disables jitter entirely: one row is enough. *)
            if d = 0 && rate <> gentle then None
            else Some (Option.get (ragged_run ~chatter_rounds ~jitter_rate:rate ~d g_ragged)))
          ragged_ds)
      [ gentle; harsh ]
  in
  Exp_common.subheading "ragged sweep (force-serial keyed jitter, line8): induced insdel noise";
  Format.printf "  %-4s %8s %8s %12s %9s %9s %10s %6s@." "d" "rate" "success" "insdel rate"
    "stalled" "injected" "cc" "iters";
  List.iter
    (fun r ->
      Format.printf "  %-4d %8.3f %8s %12.5f %9d %9d %10d %6d@." r.d r.rate
        (if r.success then "yes" else "NO")
        r.insdel_rate r.stalled r.injected r.cc r.iterations)
    ragged_rows;
  let jitter = parallel_jitter_probe ~chatter_rounds g_ragged in
  Format.printf "  parallel probe (2 domains, d=2): insdel=%.5f success=%.0f  [machine-dependent]@."
    (fst jitter) (snd jitter);
  Exp_common.write_json json (json_of rounds_rows ragged_rows jitter);
  (rounds_rows, ragged_rows)

let run () =
  ignore
    (run_with ~grid_side:32 ~rounds:4_000 ~shard_counts:[ 2; 4 ] ~chatter_rounds:100
       ~ragged_ds:[ 0; 1; 2; 4 ] ~json:(Some "BENCH_live.json") ())

(* Tiny variant for `dune runtest` (live-smoke alias): 2 domains cross
   the real barrier path, the d=0 invariants hold, and the keyed-jitter
   sweep behaves (d=0 books nothing, d>0 books something). *)
let smoke ?json () =
  let rounds_rows, ragged_rows =
    run_with ~grid_side:4 ~rounds:300 ~shard_counts:[ 2 ] ~chatter_rounds:60
      ~ragged_ds:[ 0; 2 ] ~json ()
  in
  assert (List.length rounds_rows = 6);
  List.iter (fun r -> assert (r.per_sec > 0. && r.dropped = 0)) rounds_rows;
  (match ragged_rows with
  | [ d0; d2_gentle; d2_harsh ] ->
      assert (d0.d = 0 && d0.stalled = 0 && d0.injected = 0 && d0.success);
      assert (d2_gentle.d = 2 && d2_gentle.stalled + d2_gentle.injected > 0);
      assert (d2_harsh.d = 2 && d2_harsh.insdel_rate > d2_gentle.insdel_rate)
  | _ -> assert false);
  Format.printf "@.[live-smoke ok]@."
