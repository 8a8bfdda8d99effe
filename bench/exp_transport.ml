(* TRANSPORT — the sparse active-link transport, raw and end to end.

   Two levels:

   1. Raw transport: drive [Network.commit] for N rounds under two
      traffic shapes: full duplex (every directed link speaks — the
      sparse path's worst case) and single link (one bit per round — the
      case the sparse API exists for).  Reports rounds/sec and
      minor-heap words allocated per round.  The independent dense
      reference round lives in test/test_netsim.ml, where the
      differential suite compares [commit] against it.

   2. Meeting-points block: a 16×16 grid where every directed link
      speaks a 5τ = 30-round message (τ = 6, five τ-bit words), the
      shape of one meeting-points exchange, silent adversary.  Timed as
      30 single [commit]s (bits sent and polled per link per round, the
      way the phase ran before blocks) against one
      [Network.commit_block] (words packed and unpacked), interleaved
      best of 5, per block.

   3. Full scheme: the same [Coding.Scheme.run] workload per topology on
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

type mp_result = {
  blocks : int;
  per_round : Exp_common.sample; (* [blocks] blocks as 30 commits each *)
  block : Exp_common.sample; (* [blocks] blocks as one commit_block each *)
}

let mp_tau = 6
let mp_fields = 5

(* One message per directed link, as five τ-bit words. *)
let mp_word ~dir ~field = ((dir * 5) + field) * 0x2D land ((1 lsl mp_tau) - 1)

let bench_mp ?(reps = 5) ~blocks () =
  let module N = Netsim.Network in
  let g = Topology.Graph.grid ~rows:16 ~cols:16 in
  let two_m = 2 * Topology.Graph.m g and rounds = mp_tau * mp_fields in
  let net () = N.create g Netsim.Adversary.Silent in
  let packed = Array.make (two_m * mp_fields) 0 in
  let per_round () =
    let net = net () in
    let act = N.active net in
    snd
      (Exp_common.measure (fun () ->
           for _ = 1 to blocks do
             Array.fill packed 0 (Array.length packed) 0;
             for t = 0 to rounds - 1 do
               let field = t / mp_tau and bit = t mod mp_tau in
               N.Active.begin_round act;
               for dir = 0 to two_m - 1 do
                 N.Active.send act ~dir ((mp_word ~dir ~field lsr bit) land 1 = 1)
               done;
               N.commit net act;
               for dir = 0 to two_m - 1 do
                 match N.Active.get act ~dir with
                 | Some true ->
                     let i = (dir * mp_fields) + field in
                     packed.(i) <- packed.(i) lor (1 lsl bit)
                 | Some false | None -> ()
               done
             done
           done))
  in
  let block () =
    let net = net () in
    let out = N.Block.create g ~width:mp_tau ~fields:mp_fields in
    let inw = N.Block.create g ~width:mp_tau ~fields:mp_fields in
    snd
      (Exp_common.measure (fun () ->
           for _ = 1 to blocks do
             for dir = 0 to two_m - 1 do
               for field = 0 to mp_fields - 1 do
                 N.Block.set out ~dir ~field (mp_word ~dir ~field)
               done
             done;
             N.commit_block net ~rounds ~out ~inw;
             for dir = 0 to two_m - 1 do
               for field = 0 to mp_fields - 1 do
                 packed.((dir * mp_fields) + field) <- N.Block.word inw ~dir ~field
               done
             done
           done))
  in
  let p = Exp_common.best_pair ~reps ~off:per_round ~on:block in
  { blocks; per_round = p.Exp_common.off; block = p.Exp_common.on }

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

let json_of ~rounds raw mp scheme =
  let module J = Util.Json in
  let per_block (x : Exp_common.sample) f = f x /. float_of_int mp.blocks in
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
      ( "mp_block",
        J.obj
          [
            ("topology", J.str "grid16x16");
            ("rounds_per_block", J.int (mp_tau * mp_fields));
            ("blocks", J.int mp.blocks);
            ("per_round_wall_s", J.num mp.per_round.Exp_common.wall_s);
            ("block_wall_s", J.num mp.block.Exp_common.wall_s);
            ("per_round_ns_per_block", J.num (per_block mp.per_round (fun x -> x.wall_s *. 1e9)));
            ("block_ns_per_block", J.num (per_block mp.block (fun x -> x.wall_s *. 1e9)));
            ( "per_round_minor_words_per_block",
              J.num (per_block mp.per_round (fun x -> x.minor_words)) );
            ("block_minor_words_per_block", J.num (per_block mp.block (fun x -> x.minor_words)));
            ("block_speedup", J.num (mp.per_round.wall_s /. mp.block.wall_s));
          ] );
      ("scheme_run", J.arr (List.map scheme_row scheme));
    ]

let run_with ?(rounds = 200_000) ?(blocks = 2_000) ?(json = Some "BENCH_transport.json") () =
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
  Exp_common.subheading
    (Printf.sprintf "meeting-points block: grid 16x16, %d rounds per block, %d blocks"
       (mp_tau * mp_fields) blocks);
  let mp = bench_mp ~blocks () in
  let us (x : Exp_common.sample) = x.wall_s *. 1e6 /. float_of_int blocks in
  let words (x : Exp_common.sample) = x.minor_words /. float_of_int blocks in
  Format.printf "  %-22s %12s %16s@." "path" "µs/block" "minor words/blk";
  Format.printf "  %-22s %12.1f %16.1f@." "30 x commit" (us mp.per_round) (words mp.per_round);
  Format.printf "  %-22s %12.1f %16.1f@." "1 x commit_block" (us mp.block) (words mp.block);
  Format.printf "  block speedup %.1fx@." (mp.per_round.wall_s /. mp.block.wall_s);
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
  Exp_common.write_json json (json_of ~rounds raw mp scheme);
  (raw, mp, scheme)

let run () = ignore (run_with ())

(* A fast variant for `dune runtest` via the bench-smoke alias: a few
   hundred transport rounds plus one scheme run per topology. *)
let smoke ?json () =
  let raw, mp, scheme = run_with ~rounds:400 ~blocks:20 ~json () in
  assert (List.length raw = 4);
  assert (mp.blocks = 20);
  assert (List.for_all (fun s -> s.s_success) scheme);
  Format.printf "@.[bench-smoke ok]@."
