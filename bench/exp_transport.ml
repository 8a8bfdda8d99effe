(* TRANSPORT — the sparse active-link transport, raw and end to end.

   Two levels:

   1. Raw transport: drive [Network.commit] for N rounds under two
      traffic shapes: full duplex (every directed link speaks — the
      sparse path's worst case) and single link (one bit per round — the
      case the sparse API exists for).  Reports rounds/sec and
      minor-heap words allocated per round.  The independent dense
      reference round lives in test/test_netsim.ml, where the
      differential suite compares [commit] against it.

   2. Full scheme: the same [Coding.Scheme.run] workload per topology on
      the (sparse) transport the phase drivers use end to end.

   Results go to stdout and to BENCH_transport.json in the working
   directory. *)

type raw_result = {
  topology : string;
  traffic : string;
  rounds : int;
  wall_s : float;
  rounds_per_sec : float;
  minor_words_per_round : float;
}

type scheme_result = {
  s_topology : string;
  s_rounds : int;
  s_wall_s : float;
  s_rounds_per_sec : float;
  s_minor_words : float;
  s_success : bool;
}

(* Traffic shapes.  [`Full] puts a bit on every directed link each round
   (worst case for the sparse bookkeeping); [`Single] puts one bit on
   link 0 (the sparse fast path: per-round work independent of 2m). *)

(* Each row reports the best of [repeats] runs on a fresh network: a
   single sample at these sizes is dominated by scheduler and frequency
   jitter. *)
let bench_raw ?(repeats = 5) name g ~traffic ~rounds =
  let send =
    match traffic with
    | `Full -> Exp_common.full_duplex g
    | `Single -> fun act r -> Netsim.Network.Active.send act ~dir:0 (r land 1 = 0)
  in
  let best =
    Exp_common.best_of ~reps:repeats (fun () ->
        let net = Netsim.Network.create g (Netsim.Adversary.iid (Util.Rng.create 42) ~rate:0.01) in
        Exp_common.raw_rounds net ~rounds ~send)
  in
  {
    topology = name;
    traffic = (match traffic with `Full -> "full" | `Single -> "single");
    rounds;
    wall_s = best.Exp_common.wall_s;
    rounds_per_sec = Exp_common.per_sec ~rounds best;
    minor_words_per_round = best.Exp_common.minor_words /. float_of_int rounds;
  }

let bench_scheme name g pi =
  let r, s = Exp_common.scheme_run g pi in
  {
    s_topology = name;
    s_rounds = r.Coding.Scheme.rounds;
    s_wall_s = s.Exp_common.wall_s;
    s_rounds_per_sec = Exp_common.per_sec ~rounds:r.Coding.Scheme.rounds s;
    s_minor_words = s.Exp_common.minor_words;
    s_success = r.Coding.Scheme.success;
  }

let json_of ~rounds raw scheme =
  let module J = Util.Json in
  let raw_row r =
    J.obj
      [
        ("key", J.str (r.topology ^ ":" ^ r.traffic));
        ("topology", J.str r.topology);
        ("traffic", J.str r.traffic);
        ("rounds", J.int r.rounds);
        ("wall_s", J.num r.wall_s);
        ("rounds_per_sec", J.num r.rounds_per_sec);
        ("minor_words_per_round", J.num r.minor_words_per_round);
      ]
  in
  let scheme_row s =
    J.obj
      [
        ("topology", J.str s.s_topology);
        ("rounds", J.int s.s_rounds);
        ("wall_s", J.num s.s_wall_s);
        ("rounds_per_sec", J.num s.s_rounds_per_sec);
        ("minor_words", J.num s.s_minor_words);
        ("success", J.bool s.s_success);
      ]
  in
  J.obj
    [
      ("bench", J.str "transport");
      ("raw_rounds", J.int rounds);
      ("raw", J.arr (List.map raw_row raw));
      ("scheme_run", J.arr (List.map scheme_row scheme));
    ]

let run_with ?(rounds = 200_000) ?(json = Some "BENCH_transport.json") () =
  Exp_common.heading "TRANSPORT |  sparse active-link transport, raw and end to end";
  let k5 = Topology.Graph.clique 5 in
  let line16 = Topology.Graph.line 16 in
  let topologies = [ ("K5", k5); ("line16", line16) ] in
  Exp_common.subheading (Printf.sprintf "raw transport, %d rounds per row" rounds);
  Format.printf "  %-8s %-8s %14s %16s@." "topology" "traffic" "rounds/sec" "minor words/rnd";
  let raw =
    List.concat_map
      (fun (name, g) ->
        List.map
          (fun traffic ->
            let r = bench_raw name g ~traffic ~rounds in
            Format.printf "  %-8s %-8s %14.0f %16.1f@." r.topology r.traffic r.rounds_per_sec
              r.minor_words_per_round;
            r)
          [ `Full; `Single ])
      topologies
  in
  Exp_common.subheading "full Scheme.run (Algorithm 1, iid noise 0.05%, sparse transport)";
  Format.printf "  %-8s %14s %16s %9s@." "topology" "rounds/sec" "minor words" "ok";
  let scheme =
    List.map
      (fun (name, g) ->
        let pi = Exp_common.workload ~rounds:120 g in
        let s = bench_scheme name g pi in
        Format.printf "  %-8s %14.0f %16.0f %9b@." s.s_topology s.s_rounds_per_sec
          s.s_minor_words s.s_success;
        s)
      topologies
  in
  Exp_common.write_json json (json_of ~rounds raw scheme);
  (raw, scheme)

let run () = ignore (run_with ())

(* A fast variant for `dune runtest` via the bench-smoke alias: a few
   hundred transport rounds plus one scheme run per topology. *)
let smoke ?json () =
  let raw, scheme = run_with ~rounds:400 ~json () in
  assert (List.length raw = 4);
  assert (List.for_all (fun s -> s.s_success) scheme);
  Format.printf "@.[bench-smoke ok]@."
