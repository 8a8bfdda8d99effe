(* LIVE — ragged synchrony: keyed jitter, the insertion/deletion channel
   a [Live] backend installs on its network (DESIGN.md §3h).

   Two measurements, written to BENCH_live.json:

   - raw rounds/sec of [Network.commit] on K5, line16 and a 32x32 grid
     (1024 parties) with no jitter installed: every party speaks to its
     first neighbor every round, so the per-round work is O(n);
   - the ragged sweep, d in {0, 1, 2, 4}: full scheme executions on
     4 jitter units with keyed jitter, reporting the induced insdel rate
     ((stalled + injected) / cc) and whether the simulation still
     succeeds.  These rows are keyed ragged_* and are exactly
     reproducible (the jitter stream is keyed, not timed), so the
     observatory classifies them Exact.

   A [Live] backend at d = 0 installs nothing, so it is the lockstep
   run; the live test suite's differential checks that.  The rows keep
   their historical keys ([<topo>:serial1]) and fields; [overhead_x] is
   1 by construction since the parallel engine it compared against was
   deleted (DESIGN.md §3h). *)

type round_row = { topo : string; n : int; per_sec : float; dropped : int }

type ragged_row = {
  d : int;
  rate : float; (* per-round per-unit lag probability (jitter_rate) *)
  success : bool;
  insdel_rate : float;
  stalled : int;
  injected : int;
  cc : int;
  iterations : int;
}


let topologies ~grid_side =
  [
    ("K5", Topology.Graph.clique 5);
    ("line16", Topology.Graph.line 16);
    (Printf.sprintf "grid%d" (grid_side * grid_side),
     Topology.Graph.grid ~rows:grid_side ~cols:grid_side);
  ]

(* Rounds/sec and jitter drops of the round floor (Exp_common). *)
let round_sweep ~grid_side ~rounds =
  List.map
    (fun (topo, g) ->
      let s, dropped = Exp_common.engine_floor g ~rounds in
      { topo; n = Topology.Graph.n g; per_sec = Exp_common.per_sec ~rounds s; dropped })
    (topologies ~grid_side)

(* One full scheme execution under keyed jitter (4 jitter units) at ragged
   depth [d] under a silent adversary: the insdel noise the keyed lags
   induced, or None when the run left no result. *)
let ragged_run ~chatter_rounds ~jitter_rate ~d g =
  let pi = Protocol.Protocols.random_chatter g ~rounds:chatter_rounds ~density:0.5 ~seed:3 in
  let backend = Coding.Scheme.Live (Live.Config.make ~shards:4 ~ragged_d:d ~jitter_rate ()) in
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

let json_of rounds_rows ragged_rows =
  let module J = Util.Json in
  let rr r =
    J.obj
      [
        ("key", J.str (r.topo ^ ":serial1"));
        ("n", J.int r.n);
        ("rounds_per_sec", J.num r.per_sec);
        ("overhead_x", J.num 1.);
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
    ]

let run_with ~grid_side ~rounds ~chatter_rounds ~ragged_ds ~json () =
  Exp_common.heading "LIVE  |  round floor, ragged synchrony";
  let rounds_rows = round_sweep ~grid_side ~rounds in
  Format.printf "  %-10s %6s | %12s %8s@." "topology" "n" "rounds/s" "dropped";
  List.iter
    (fun r ->
      Format.printf "  %-10s %6d | %12.0f %8d@." r.topo r.n r.per_sec r.dropped;
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
  Exp_common.subheading "ragged sweep (keyed jitter, 4 shards, line8): induced insdel noise";
  Format.printf "  %-4s %8s %8s %12s %9s %9s %10s %6s@." "d" "rate" "success" "insdel rate"
    "stalled" "injected" "cc" "iters";
  List.iter
    (fun r ->
      Format.printf "  %-4d %8.3f %8s %12.5f %9d %9d %10d %6d@." r.d r.rate
        (if r.success then "yes" else "NO")
        r.insdel_rate r.stalled r.injected r.cc r.iterations)
    ragged_rows;
  Exp_common.write_json json (json_of rounds_rows ragged_rows);
  (rounds_rows, ragged_rows)

let run () =
  ignore
    (run_with ~grid_side:32 ~rounds:4_000 ~chatter_rounds:100 ~ragged_ds:[ 0; 1; 2; 4 ]
       ~json:(Some "BENCH_live.json") ())

(* Tiny variant for `dune runtest` (live-smoke alias): the d=0
   invariants hold, and the keyed-jitter sweep behaves (d=0 books
   nothing, d>0 books something). *)
let smoke ?json () =
  let rounds_rows, ragged_rows =
    run_with ~grid_side:4 ~rounds:300 ~chatter_rounds:60 ~ragged_ds:[ 0; 2 ] ~json ()
  in
  assert (List.length rounds_rows = 3);
  List.iter (fun r -> assert (r.per_sec > 0. && r.dropped = 0)) rounds_rows;
  (match ragged_rows with
  | [ d0; d2_gentle; d2_harsh ] ->
      assert (d0.d = 0 && d0.stalled = 0 && d0.injected = 0 && d0.success);
      assert (d2_gentle.d = 2 && d2_gentle.stalled + d2_gentle.injected > 0);
      assert (d2_harsh.d = 2 && d2_harsh.insdel_rate > d2_gentle.insdel_rate)
  | _ -> assert false);
  Format.printf "@.[live-smoke ok]@."
