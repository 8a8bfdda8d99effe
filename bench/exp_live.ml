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

module Network = Netsim.Network
module Active = Netsim.Network.Active

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

(* Every party sends one bit toward its first neighbor each round;
   receivers drain the delivered set for their own shard.  This is the
   engine's overhead floor: maximal barrier pressure, minimal work. *)
let bench_rounds g ~shards ~serial ~rounds =
  let n = Topology.Graph.n g in
  let net = Network.create g Netsim.Adversary.Silent in
  let ex =
    Live.Exec.create ~net
      ~config:(Live.Config.make ~shards ~force_serial:serial ())
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
      let wall = Unix.gettimeofday () -. t0 in
      (float_of_int rounds /. wall, Live.Exec.jitter_dropped ex))

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

(* One full scheme execution on the keyed-jitter serial engine. *)
let ragged_run ~chatter_rounds ~jitter_rate ~d g =
  let pi = Protocol.Protocols.random_chatter g ~rounds:chatter_rounds ~density:0.5 ~seed:3 in
  let params = Coding.Params.algorithm_1 g in
  let backend =
    Coding.Scheme.Live
      (Live.Config.make ~shards:4 ~ragged_d:d ~jitter_rate ~force_serial:true ())
  in
  let outcome =
    Coding.Scheme.run_outcome
      ~config:(Coding.Scheme.Config.make ~backend ())
      ~rng:(Util.Rng.create 11) params pi Netsim.Adversary.Silent
  in
  let result = Option.get (Faults.Outcome.result outcome) in
  let stalled, injected =
    match Faults.Outcome.diagnosis outcome with
    | Some diag -> (diag.Faults.Outcome.stalled_slots, diag.Faults.Outcome.injected)
    | None -> (0, 0)
  in
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
  }

(* A genuinely parallel ragged run: numbers depend on the machine's
   scheduling, so they are published under jitter_* (observatory:
   Ignored) purely as a live artifact to eyeball. *)
let parallel_jitter_probe ~chatter_rounds g =
  let pi = Protocol.Protocols.random_chatter g ~rounds:chatter_rounds ~density:0.5 ~seed:3 in
  let params = Coding.Params.algorithm_1 g in
  let backend = Coding.Scheme.Live (Live.Config.make ~shards:2 ~ragged_d:2 ()) in
  let outcome =
    Coding.Scheme.run_outcome
      ~config:(Coding.Scheme.Config.make ~backend ())
      ~rng:(Util.Rng.create 11) params pi Netsim.Adversary.Silent
  in
  match Faults.Outcome.result outcome with
  | None -> (0., 0.)
  | Some r ->
      let stalled, injected =
        match Faults.Outcome.diagnosis outcome with
        | Some diag -> (diag.Faults.Outcome.stalled_slots, diag.Faults.Outcome.injected)
        | None -> (0, 0)
      in
      ( (if r.Coding.Scheme.cc = 0 then 0.
         else float_of_int (stalled + injected) /. float_of_int r.Coding.Scheme.cc),
        if r.Coding.Scheme.success then 1. else 0. )

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
            else Some (ragged_run ~chatter_rounds ~jitter_rate:rate ~d g_ragged))
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
  (match json with
  | None -> ()
  | Some path ->
      Runner.Report.write_file ~path (json_of rounds_rows ragged_rows jitter);
      Format.printf "@.[wrote %s]@." path);
  (rounds_rows, ragged_rows)

let run () =
  ignore
    (run_with ~grid_side:32 ~rounds:4_000 ~shard_counts:[ 2; 4 ] ~chatter_rounds:100
       ~ragged_ds:[ 0; 1; 2; 4 ] ~json:(Some "BENCH_live.json") ())

(* Tiny variant for `dune runtest` (live-smoke alias): 2 domains cross
   the real barrier path, the d=0 invariants hold, and the keyed-jitter
   sweep behaves (d=0 books nothing, d>0 books something). *)
let smoke () =
  let rounds_rows, ragged_rows =
    run_with ~grid_side:4 ~rounds:300 ~shard_counts:[ 2 ] ~chatter_rounds:60
      ~ragged_ds:[ 0; 2 ] ~json:None ()
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
