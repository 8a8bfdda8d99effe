(* TRANSPORT — the sparse active-link transport vs the dense buffer.

   Two levels:

   1. Raw transport: drive the network for N rounds, once through
      [Network.round_buf] — the dense-buffer adapter over [commit], which
      adds an O(2m) load and write-back per round — and once through the
      sparse [Network.commit] directly, under
      two traffic shapes: full duplex (every directed link speaks — the
      sparse path's worst case) and single link (one bit per round — the
      case the sparse API exists for).  Reports rounds/sec and
      minor-heap words allocated per round.  The independent dense
      reference round lives in test/test_netsim.ml, where the
      differential suite compares [commit] against it.

   2. Full scheme: the same [Coding.Scheme.run] workload per topology on
      the (sparse) transport the phase drivers now use end to end.

   Results go to stdout and to BENCH_transport.json in the working
   directory. *)

module Network = Netsim.Network
module Slots = Netsim.Network.Slots
module Active = Netsim.Network.Active

type raw_result = {
  topology : string;
  transport : string;
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

(* Each row reports the best of [repeats] runs, with the dense and the
   sparse repetition interleaved inside the same loop: the two
   transports differ by tens of nanoseconds per round at these sizes, so
   a single sample is dominated by scheduler and frequency jitter, and
   back-to-back halves would let a slow spell land on one transport
   only. *)
let bench_pair ?(repeats = 5) name g ~traffic ~rounds =
  let edges = Topology.Graph.edges g in
  let n_edges = Array.length edges in
  let dir_fwd = Array.init n_edges (fun e -> 2 * e) in
  let dir_bwd = Array.init n_edges (fun e -> (2 * e) + 1) in
  let run_dense () =
    let adv = Netsim.Adversary.iid (Util.Rng.create 42) ~rate:0.01 in
    let net = Network.create g adv in
    let slots = Network.slots net in
    let t0 = Unix.gettimeofday () in
    for r = 0 to rounds - 1 do
      Slots.clear slots;
      (match traffic with
      | `Full ->
          for e = 0 to n_edges - 1 do
            let u, v = edges.(e) in
            Slots.set slots ~dir:dir_fwd.(e) ((r + u) land 1 = 0);
            Slots.set slots ~dir:dir_bwd.(e) ((r + v) land 1 = 0)
          done
      | `Single -> Slots.set slots ~dir:dir_fwd.(0) (r land 1 = 0));
      Network.round_buf net slots;
      let seen = ref 0 in
      Slots.iter slots (fun ~dir:_ _ -> incr seen);
      ignore !seen
    done;
    Unix.gettimeofday () -. t0
  in
  let run_sparse () =
    let adv = Netsim.Adversary.iid (Util.Rng.create 42) ~rate:0.01 in
    let net = Network.create g adv in
    let act = Network.active net in
    let t0 = Unix.gettimeofday () in
    for r = 0 to rounds - 1 do
      Active.begin_round act;
      (match traffic with
      | `Full ->
          for e = 0 to n_edges - 1 do
            let u, v = edges.(e) in
            Active.send act ~dir:dir_fwd.(e) ((r + u) land 1 = 0);
            Active.send act ~dir:dir_bwd.(e) ((r + v) land 1 = 0)
          done
      | `Single -> Active.send act ~dir:dir_fwd.(0) (r land 1 = 0));
      Network.commit net act;
      let seen = ref 0 in
      Active.iter act (fun ~dir:_ _ -> incr seen);
      ignore !seen
    done;
    Unix.gettimeofday () -. t0
  in
  let measure run =
    Gc.full_major ();
    let w0 = Gc.minor_words () in
    let wall = run () in
    (wall, Gc.minor_words () -. w0)
  in
  let best_d = ref infinity and best_s = ref infinity in
  let words_d = ref 0. and words_s = ref 0. in
  for _rep = 1 to repeats do
    let wd, ww = measure run_dense in
    if wd < !best_d then best_d := wd;
    words_d := ww;
    let ws, ww = measure run_sparse in
    if ws < !best_s then best_s := ws;
    words_s := ww
  done;
  let row transport wall words =
    {
      topology = name;
      transport;
      traffic = (match traffic with `Full -> "full" | `Single -> "single");
      rounds;
      wall_s = wall;
      rounds_per_sec = float_of_int rounds /. wall;
      minor_words_per_round = words /. float_of_int rounds;
    }
  in
  (row "dense" !best_d !words_d, row "sparse" !best_s !words_s)

let bench_scheme name g pi =
  let params = Coding.Params.algorithm_1 g in
  let adv = Netsim.Adversary.iid (Util.Rng.create 11) ~rate:0.0005 in
  Gc.full_major ();
  let w0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  let r = Coding.Scheme.run ~rng:(Util.Rng.create 7) params pi adv in
  let wall = Unix.gettimeofday () -. t0 in
  let words = Gc.minor_words () -. w0 in
  {
    s_topology = name;
    s_rounds = r.Coding.Scheme.rounds;
    s_wall_s = wall;
    s_rounds_per_sec = float_of_int r.Coding.Scheme.rounds /. wall;
    s_minor_words = words;
    s_success = r.Coding.Scheme.success;
  }

let json_of ~rounds raw scheme =
  let module J = Runner.Report.Json in
  let raw_row r =
    J.obj
      [
        ("topology", J.str r.topology);
        ("transport", J.str r.transport);
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
  let ratio topo traffic =
    let find t =
      List.find (fun r -> r.topology = topo && r.transport = t && r.traffic = traffic) raw
    in
    (find "sparse").rounds_per_sec /. (find "dense").rounds_per_sec
  in
  J.obj
    [
      ("bench", J.str "transport");
      ("raw_rounds", J.int rounds);
      ("raw", J.arr (List.map raw_row raw));
      ("scheme_run", J.arr (List.map scheme_row scheme));
      ( "raw_speedup",
        J.obj
          [ ("K5", J.num (ratio "K5" "full")); ("line16", J.num (ratio "line16" "full")) ] );
      ( "raw_sparse_advantage_single",
        J.obj
          [
            ("K5", J.num (ratio "K5" "single")); ("line16", J.num (ratio "line16" "single"));
          ] );
    ]

let run_with ?(rounds = 200_000) ?(json = Some "BENCH_transport.json") () =
  Exp_common.heading "TRANSPORT |  sparse active-link transport vs dense slot buffer";
  let k5 = Topology.Graph.clique 5 in
  let line16 = Topology.Graph.line 16 in
  let topologies = [ ("K5", k5); ("line16", line16) ] in
  Exp_common.subheading (Printf.sprintf "raw transport, %d rounds per row" rounds);
  Format.printf "  %-8s %-8s %-8s %14s %16s@." "topology" "path" "traffic" "rounds/sec"
    "minor words/rnd";
  let raw =
    List.concat_map
      (fun (name, g) ->
        List.concat_map
          (fun traffic ->
            let d, s = bench_pair name g ~traffic ~rounds in
            List.iter
              (fun r ->
                Format.printf "  %-8s %-8s %-8s %14.0f %16.1f@." r.topology r.transport
                  r.traffic r.rounds_per_sec r.minor_words_per_round)
              [ d; s ];
            Format.printf "  %-8s sparse/dense (%s) %8.2fx@." name
              (match traffic with `Full -> "full" | `Single -> "single")
              (s.rounds_per_sec /. d.rounds_per_sec);
            [ d; s ])
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
  (match json with
  | None -> ()
  | Some path ->
      Runner.Report.write_file ~path (json_of ~rounds raw scheme);
      Format.printf "@.[wrote %s]@." path);
  (raw, scheme)

let run () = ignore (run_with ())

(* A fast variant for `dune runtest` via the bench-smoke alias: a few
   hundred transport rounds plus one scheme run per topology. *)
let smoke () =
  let raw, scheme = run_with ~rounds:400 ~json:None () in
  assert (List.length raw = 8);
  assert (List.for_all (fun s -> s.s_success) scheme);
  Format.printf "@.[bench-smoke ok]@."
