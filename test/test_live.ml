(* Tests for lib/live: the shard partitioner, the sense-reversing
   barrier under real parallelism, the execution engine's round
   semantics, and — the backbone — the backend differential: the scheme
   on [Live] with d = 0 must be byte-identical to [Lockstep] across
   topologies, adversaries and fault plans. *)

module Network = Netsim.Network

(* ---------- Shard ---------- *)

let test_shard_partition_properties () =
  List.iter
    (fun (n, shards) ->
      let weights = Array.init n (fun i -> (i * 7) mod 5) in
      let sh = Live.Shard.partition ~weights ~shards in
      let s = Live.Shard.shards sh in
      Alcotest.(check bool)
        (Printf.sprintf "n=%d shards=%d: effective count in range" n shards)
        true
        (s >= 1 && s <= min shards n);
      (* Ranges are contiguous, non-empty, cover [0, n), and agree with
         [owner]. *)
      let expected_lo = ref 0 in
      for k = 0 to s - 1 do
        let lo, hi = Live.Shard.range sh k in
        Alcotest.(check int) "contiguous" !expected_lo lo;
        Alcotest.(check bool) "non-empty" true (hi > lo);
        for p = lo to hi - 1 do
          Alcotest.(check int) (Printf.sprintf "owner of %d" p) k (Live.Shard.owner sh p)
        done;
        expected_lo := hi
      done;
      Alcotest.(check int) "covers all parties" n !expected_lo)
    [ (1, 1); (1, 8); (5, 2); (16, 4); (16, 16); (17, 4); (100, 7); (10, 64) ]

let test_shard_balance () =
  (* A hub-heavy star: degree weighting must not leave the hub's shard
     with everything else too.  With 1+degree weights on star(64),
     the hub weighs 64 and each leaf 2: the hub's shard should get few
     leaves. *)
  let g = Topology.Graph.star 64 in
  let sh = Live.Shard.of_degrees ~graph:g ~shards:4 in
  Alcotest.(check int) "4 shards" 4 (Live.Shard.shards sh);
  let _, hub_hi = Live.Shard.range sh (Live.Shard.owner sh 0) in
  Alcotest.(check bool) "hub shard is lean" true (hub_hi <= 32)

(* ---------- Barrier ---------- *)

let test_barrier_two_domains () =
  (* Two domains cross the same barrier 500 times; a shared counter is
     incremented before each await, so after the k-th crossing both
     sides must read exactly 2k — a missed or double release would show
     up as a torn count. *)
  let b = Live.Barrier.create 2 in
  let count = Atomic.make 0 in
  let bad = Atomic.make 0 in
  let episodes = 500 in
  let body () =
    for k = 1 to episodes do
      Atomic.incr count;
      ignore (Live.Barrier.await b : bool);
      if Atomic.get count < 2 * k then Atomic.incr bad;
      (* Second barrier keeps a fast domain from racing into the next
         episode's increment before the slow one checked. *)
      ignore (Live.Barrier.await b : bool)
    done
  in
  let d = Domain.spawn body in
  body ();
  Domain.join d;
  Alcotest.(check int) "no torn episode" 0 (Atomic.get bad);
  Alcotest.(check int) "final count" (2 * episodes) (Atomic.get count)

let test_barrier_giveup () =
  let b = Live.Barrier.create 2 in
  (* Nobody else ever arrives: the giveup must fire and await report
     failure rather than hanging. *)
  let tries = ref 0 in
  let ok =
    Live.Barrier.await
      ~giveup:(fun () ->
        incr tries;
        !tries > 3)
      b
  in
  Alcotest.(check bool) "aborted wait returns false" false ok

(* ---------- Exec: raw round semantics ---------- *)

let line4 = Topology.Graph.line 4

let test_exec_round_delivery () =
  (* A 4-party line driven for 24 rounds on 2 real domains, d = 0:
     every round's rightward bit must be delivered in that round, and
     the lockstep window must book zero jitter. *)
  let net = Network.create line4 Netsim.Adversary.Silent in
  let ex =
    Live.Exec.create ~net
      ~config:(Live.Config.make ~shards:2 ())
      ~weights:(Array.init 4 (fun i -> Topology.Graph.degree line4 i))
      ()
  in
  Fun.protect
    ~finally:(fun () -> Live.Exec.shutdown ex)
    (fun () ->
      let missed = Atomic.make 0 in
      for r = 0 to 23 do
        Live.Exec.round ex
          ~write:(fun ~shard buf ->
            let lo, hi = Live.Exec.bounds ex ~shard in
            for v = lo to hi - 1 do
              if v < 3 then
                Network.Active.send buf
                  ~dir:(Topology.Graph.dir_id line4 ~src:v ~dst:(v + 1))
                  (r land 1 = 1)
            done)
          ~read:(fun ~shard master ->
            let lo, hi = Live.Exec.bounds ex ~shard in
            for v = lo to hi - 1 do
              if v > 0 then
                match
                  Network.Active.get master
                    ~dir:(Topology.Graph.dir_id line4 ~src:(v - 1) ~dst:v)
                with
                | Some b -> if b <> (r land 1 = 1) then Atomic.incr missed
                | None -> Atomic.incr missed
            done)
          ()
      done;
      Live.Exec.join ex;
      Alcotest.(check int) "all deliveries intact" 0 (Atomic.get missed);
      Alcotest.(check int) "rounds_run" 24 (Live.Exec.rounds_run ex);
      Alcotest.(check int) "cc" (24 * 3) (Network.stats net).Network.cc;
      Alcotest.(check int) "d=0 books no drops" 0 (Live.Exec.jitter_dropped ex);
      Alcotest.(check int) "d=0 books no stale" 0 (Live.Exec.jitter_surfaced ex))

let test_exec_block_delivery () =
  (* The same line carrying a 3-field block of width 8 (20 rounds, the
     last field cut short), each engine shape: serial, 2 domains at
     d = 0 (one job), and the serial keyed-jitter engine at d = 1 with
     no jitter (the per-round fallback).  Every sender's words must
     arrive whole, bits past the 20th silent, and the books must count
     20 rounds. *)
  let words v = [| 0xA5 lxor v; 0x3C + v; 0x0F lsl v |] in
  (let ex =
     Live.Exec.create
       ~net:(Network.create line4 Netsim.Adversary.Silent)
       ~config:Live.Config.default ~weights:(Array.make 4 1) ()
   in
   let nop ~shard:_ _ = () in
   Alcotest.check_raises "no rounds" (Invalid_argument "Live.Exec.block: rounds < 1") (fun () ->
       Live.Exec.block ex ~width:8 ~rounds:0 ~write:nop ~read:nop ());
   Alcotest.check_raises "no width" (Invalid_argument "Live.Exec.block: width out of range")
     (fun () -> Live.Exec.block ex ~width:0 ~rounds:4 ~write:nop ~read:nop ());
   Live.Exec.shutdown ex);
  List.iter
    (fun (name, config) ->
      let net = Network.create line4 Netsim.Adversary.Silent in
      let ex =
        Live.Exec.create ~net ~config
          ~weights:(Array.init 4 (fun i -> Topology.Graph.degree line4 i))
          ()
      in
      Fun.protect
        ~finally:(fun () -> Live.Exec.shutdown ex)
        (fun () ->
          let bad = Atomic.make 0 in
          for _ = 1 to 3 do
            Live.Exec.block ex ~width:8 ~rounds:20
              ~write:(fun ~shard out ->
                let lo, hi = Live.Exec.bounds ex ~shard in
                for v = lo to min hi 3 - 1 do
                  Array.iteri
                    (fun field w ->
                      Network.Block.set out
                        ~dir:(Topology.Graph.dir_id line4 ~src:v ~dst:(v + 1))
                        ~field w)
                    (words v)
                done)
              ~read:(fun ~shard inw ->
                let lo, hi = Live.Exec.bounds ex ~shard in
                for v = max lo 1 to hi - 1 do
                  let dir = Topology.Graph.dir_id line4 ~src:(v - 1) ~dst:v in
                  Array.iteri
                    (fun field w ->
                      let keep = if field = 2 then 0xF else 0xFF in
                      if Network.Block.word inw ~dir ~field <> w land keep then Atomic.incr bad;
                      if Network.Block.heard inw ~dir ~field <> keep then Atomic.incr bad)
                    (words (v - 1));
                  (* Nobody speaks leftward: those directions stay silent. *)
                  let back = Topology.Graph.dir_id line4 ~src:v ~dst:(v - 1) in
                  for field = 0 to 2 do
                    if Network.Block.heard inw ~dir:back ~field <> 0 then Atomic.incr bad
                  done
                done)
              ()
          done;
          Live.Exec.join ex;
          Alcotest.(check int) (name ^ ": words intact") 0 (Atomic.get bad);
          Alcotest.(check int) (name ^ ": rounds_run") 60 (Live.Exec.rounds_run ex);
          Alcotest.(check int) (name ^ ": network rounds") 60 (Network.stats net).Network.rounds;
          Alcotest.(check int) (name ^ ": cc") (3 * 3 * 20) (Network.stats net).Network.cc))
    [
      ("serial", Live.Config.default);
      ("2 domains", Live.Config.make ~shards:2 ());
      ("serial d=1", Live.Config.make ~shards:2 ~ragged_d:1 ~jitter_rate:0. ~force_serial:true ());
    ]

let test_exec_worker_exception () =
  (* A worker raising inside a job poisons the engine: the exception
     surfaces at the next issue/join on the leader, and shutdown still
     returns cleanly afterwards. *)
  let net = Network.create line4 Netsim.Adversary.Silent in
  let ex =
    Live.Exec.create ~net
      ~config:(Live.Config.make ~shards:2 ())
      ~weights:(Array.make 4 1) ()
  in
  let raised =
    try
      Live.Exec.slice ex (fun w -> if w = 1 then failwith "boom");
      Live.Exec.join ex;
      false
    with Failure m -> m = "boom"
  in
  Alcotest.(check bool) "worker exception propagates to leader" true raised;
  Live.Exec.shutdown ex;
  Live.Exec.shutdown ex (* idempotent *)

let test_exec_sharded_trace () =
  (* Workers emit into their own rings from real domains; the engine
     stamps job ticks, so the merge must come out round-ordered with
     shard 0 before shard 1 inside every round. *)
  let net = Network.create line4 Netsim.Adversary.Silent in
  let ex =
    Live.Exec.create ~net
      ~config:(Live.Config.make ~shards:2 ())
      ~weights:(Array.make 4 1) ()
  in
  (match Live.Exec.set_trace ex (Trace.Sharded.create ~shards:3 ()) with
  | () -> Alcotest.fail "shard-count mismatch accepted"
  | exception Invalid_argument _ -> ());
  let sh = Trace.Sharded.create ~shards:2 () in
  let mark = Trace.Sink.declare "mark" in
  Live.Exec.set_trace ex sh;
  let rounds = 8 in
  Fun.protect
    ~finally:(fun () -> Live.Exec.shutdown ex)
    (fun () ->
      for r = 0 to rounds - 1 do
        Live.Exec.round ex
          ~write:(fun ~shard _buf ->
            Trace.Sink.count (Trace.Sharded.ring sh shard) ~id:mark ~iter:r ~arg:shard 1)
          ~read:(fun ~shard:_ _master -> ())
          ()
      done;
      Live.Exec.join ex);
  let es = Trace.Merge.entries sh in
  Alcotest.(check int) "one event per shard per round" 16 (List.length es);
  let coords =
    List.map
      (fun (e : Trace.Merge.entry) ->
        match e.Trace.Merge.ev with
        | Trace.Sink.Count { iter; arg; _ } -> (iter, arg)
        | _ -> Alcotest.fail "unexpected event kind")
      es
  in
  Alcotest.(check (list (pair int int))) "round-major, shard-minor order"
    (List.concat_map (fun r -> [ (r, 0); (r, 1) ]) (List.init rounds Fun.id))
    coords;
  (* Ticks are monotone across the merge (the job schedule is total). *)
  let ticks = List.map (fun (e : Trace.Merge.entry) -> e.Trace.Merge.tick) es in
  Alcotest.(check bool) "ticks monotone" true (List.sort compare ticks = ticks)

(* ---------- Backend differential ---------- *)

let graphs =
  [
    ("K5", fun () -> Topology.Graph.clique 5);
    ("line6", fun () -> Topology.Graph.line 6);
    ("random8", fun () -> Topology.Graph.random_connected (Util.Rng.create 7) ~n:8 ~extra_edges:4);
  ]

let run_backend ?(faults = Faults.Plan.empty) ~backend ~adv ~seed graph =
  let pi = Protocol.Protocols.random_chatter graph ~rounds:100 ~density:0.5 ~seed:3 in
  let params = Coding.Params.algorithm_1 graph in
  Coding.Scheme.run_outcome
    ~config:(Coding.Scheme.Config.make ~trace:true ~faults ~backend ())
    ~rng:(Util.Rng.create seed) params pi (adv ())

(* Everything in [result] is plain data, so polymorphic equality is the
   byte-identity check; the diagnosis is compared field-wise minus the
   wall clock. *)
let check_identical name a b =
  Alcotest.(check string) (name ^ ": outcome label") (Faults.Outcome.label a)
    (Faults.Outcome.label b);
  Alcotest.(check bool)
    (name ^ ": result identical")
    true
    (Faults.Outcome.result a = Faults.Outcome.result b);
  let strip (d : Faults.Outcome.diagnosis) =
    Faults.Outcome.
      ( d.crashed_iterations,
        d.rejoins,
        d.transcript_rot,
        d.seed_rot,
        d.stalled_slots,
        d.injected,
        d.iterations_run,
        d.iterations_planned,
        d.notes )
  in
  Alcotest.(check bool)
    (name ^ ": diagnosis identical")
    true
    (Option.map strip (Faults.Outcome.diagnosis a)
    = Option.map strip (Faults.Outcome.diagnosis b))

let adversaries =
  [
    ("silent", fun () -> Netsim.Adversary.Silent);
    ("iid", fun () -> Netsim.Adversary.iid (Util.Rng.create 99) ~rate:0.002);
  ]

let test_differential_d0 () =
  List.iter
    (fun (gname, mk) ->
      List.iter
        (fun (aname, adv) ->
          let g = mk () in
          let reference = run_backend ~backend:Coding.Scheme.Lockstep ~adv ~seed:11 g in
          List.iter
            (fun shards ->
              let live =
                run_backend
                  ~backend:(Coding.Scheme.Live (Live.Config.make ~shards ()))
                  ~adv ~seed:11 g
              in
              check_identical
                (Printf.sprintf "%s/%s/shards=%d" gname aname shards)
                reference live)
            [ 1; 2; 4 ])
        adversaries)
    graphs

let fault_plan g =
  let n = Topology.Graph.n g in
  Faults.Plan.make ~key:"live-diff"
    [
      Faults.Plan.Crash { party = 0; at_iteration = 2; recover_at = Some 5 };
      Faults.Plan.Crash { party = n - 1; at_iteration = 4; recover_at = None };
      Faults.Plan.Seed_rot { party = 1; from_iteration = 3 };
      Faults.Plan.Transcript_rot { party = n / 2; at_iteration = 6 };
      Faults.Plan.Link_stall { edge = 0; from_round = 40; rounds = 25 };
    ]

let test_differential_faults () =
  List.iter
    (fun (gname, mk) ->
      List.iter
        (fun (aname, adv) ->
          let g = mk () in
          let faults = fault_plan g in
          let reference =
            run_backend ~faults ~backend:Coding.Scheme.Lockstep ~adv ~seed:13 g
          in
          let live =
            run_backend ~faults
              ~backend:(Coding.Scheme.Live (Live.Config.make ~shards:2 ()))
              ~adv ~seed:13 g
          in
          check_identical (Printf.sprintf "faults/%s/%s" gname aname) reference live)
        adversaries)
    [ List.nth graphs 0; List.nth graphs 2 ]

let test_differential_trace_stream () =
  (* An enabled sink captures into per-domain rings merged after the
     run, so the normalized (timing-free) trace streams must match the
     reference backend character for character — same probes, same
     order, same arguments. *)
  let g = Topology.Graph.clique 5 in
  let go backend =
    let sink = Trace.Sink.create () in
    let pi = Protocol.Protocols.random_chatter g ~rounds:80 ~density:0.5 ~seed:3 in
    let outcome =
      Coding.Scheme.run_outcome
        ~config:(Coding.Scheme.Config.make ~sink ~faults:(fault_plan g) ~backend ())
        ~rng:(Util.Rng.create 17) (Coding.Params.algorithm_1 g) pi
        (Netsim.Adversary.iid (Util.Rng.create 99) ~rate:0.002)
    in
    (Trace.Export.chrome ~timing:false sink, outcome)
  in
  let ref_stream, ref_outcome = go Coding.Scheme.Lockstep in
  let live_stream, live_outcome =
    go (Coding.Scheme.Live (Live.Config.make ~shards:4 ()))
  in
  Alcotest.(check string) "trace streams identical" ref_stream live_stream;
  check_identical "traced run" ref_outcome live_outcome

(* ---------- Ragged synchrony ---------- *)

let test_serial_ragged_deterministic () =
  (* The keyed-jitter serial engine: same config twice gives the same
     degraded run, and the jitter really is booked — the diagnosis
     carries stalled/injected symbols and the outcome degrades. *)
  let g = Topology.Graph.line 6 in
  let backend =
    Coding.Scheme.Live
      (Live.Config.make ~shards:4 ~ragged_d:2 ~jitter_rate:0.2 ~force_serial:true ())
  in
  let adv () = Netsim.Adversary.Silent in
  let a = run_backend ~backend ~adv ~seed:21 g in
  let b = run_backend ~backend ~adv ~seed:21 g in
  check_identical "ragged repeat" a b;
  Alcotest.(check string) "jitter degrades the run" "degraded" (Faults.Outcome.label a);
  (match Faults.Outcome.diagnosis a with
  | Some d ->
      Alcotest.(check bool)
        "jitter booked as stalls" true
        (d.Faults.Outcome.stalled_slots > 0)
  | None -> Alcotest.fail "expected a diagnosis");
  (* d = 0 with the same jitter rate books nothing: the rate only
     matters once there is slack to lag into. *)
  let d0 =
    run_backend
      ~backend:
        (Coding.Scheme.Live
           (Live.Config.make ~shards:4 ~ragged_d:0 ~jitter_rate:0.2 ~force_serial:true ()))
      ~adv ~seed:21 g
  in
  Alcotest.(check string) "d=0 stays clean" "completed" (Faults.Outcome.label d0)

let test_ragged_is_keyed_jitter () =
  (* Ragged synchrony is the keyed-jitter serial engine at every shard
     count: a 2-shard d = 1 config builds the serial engine, and its run
     is byte-identical to the same config with [force_serial] — outcome,
     timing-free trace export and Exact metrics.  No fault plan: every
     stalled or injected symbol is the jitter's. *)
  let g = Topology.Graph.line 6 in
  let config ~force_serial =
    Live.Config.make ~shards:2 ~ragged_d:1 ~jitter_rate:0.05 ~force_serial ()
  in
  let ex =
    Live.Exec.create
      ~net:(Network.create g Netsim.Adversary.Silent)
      ~config:(config ~force_serial:false)
      ~weights:(Array.init 6 (Topology.Graph.degree g))
      ()
  in
  let serial = Live.Exec.is_serial ex and shards = Live.Exec.shards ex in
  Live.Exec.shutdown ex;
  Alcotest.(check bool) "d = 1 builds the serial engine" true serial;
  Alcotest.(check int) "over both shards" 2 shards;
  let go ~force_serial =
    let sink = Trace.Sink.create () and reg = Metrics.Registry.create () in
    let pi = Protocol.Protocols.random_chatter g ~rounds:100 ~density:0.5 ~seed:3 in
    let outcome =
      Coding.Scheme.run_outcome
        ~config:
          (Coding.Scheme.Config.make ~sink ~metrics:reg
             ~backend:(Coding.Scheme.Live (config ~force_serial))
             ())
        ~rng:(Util.Rng.create 23) (Coding.Params.algorithm_1 g) pi
        (Netsim.Adversary.iid (Util.Rng.create 99) ~rate:0.002)
    in
    ( outcome,
      Trace.Export.jsonl ~timing:false sink,
      Metrics.Expo.exact_json (Metrics.Registry.snapshot reg) )
  in
  let o, tr, m = go ~force_serial:false and o_ref, tr_ref, m_ref = go ~force_serial:true in
  check_identical "d=1/shards=2" o_ref o;
  Alcotest.(check string) "trace export" tr_ref tr;
  Alcotest.(check string) "exact metrics" m_ref m;
  match Faults.Outcome.diagnosis o with
  | Some d ->
      Alcotest.(check bool) "jitter booked" true
        (d.Faults.Outcome.stalled_slots > 0 && d.Faults.Outcome.injected > 0)
  | None -> Alcotest.fail "expected a diagnosis"

(* ---------- Meeting-points block vs the per-round oracle ----------

   The meeting-points exchange's shape: every live party sends a
   five-field message of [width]-bit words on each of its links, every
   bit fixed before the first round.  The same write/read callbacks go
   once through [Live.Exec.block] and once through the reference — one
   [Live.Exec.round] per wire bit, round t carrying bit t of every
   message, the loop the scheme's meeting-points phase ran before it
   became one block.  The reference packs into and unpacks from a
   private block per shard, so nothing in it goes through
   [Live.Exec.block] or [Network.commit_block].  The scheme end to end
   is pinned by the Alg 1/A/B, fault and export goldens in test_coding,
   test_faults and test_trace. *)
let per_round_block ex g ?label ~width ~rounds ~write ~read () =
  let module B = Network.Block in
  let fields = (rounds + width - 1) / width and two_m = 2 * Topology.Graph.m g in
  let mk () = Array.init (Live.Exec.shards ex) (fun _ -> B.create g ~width ~fields) in
  let outs = mk () and ins = mk () in
  for t = 0 to rounds - 1 do
    Live.Exec.round ex
      ?label:(if t = 0 then label else None)
      ~write:(fun ~shard buf ->
        if t = 0 then write ~shard outs.(shard);
        for dir = 0 to two_m - 1 do
          match B.get outs.(shard) ~dir ~round:t with
          | Some b -> Network.Active.send buf ~dir b
          | None -> ()
        done)
      ~read:(fun ~shard master ->
        for dir = 0 to two_m - 1 do
          match Network.Active.get master ~dir with
          | Some b -> B.send ins.(shard) ~dir ~round:t b
          | None -> ()
        done;
        if t = rounds - 1 then read ~shard ins.(shard))
      ()
  done

let mp_blocks = 4

(* [mp_blocks] meeting-points-shaped blocks on a fresh, traced and
   metered engine.  In block [k] party [v] is down when [(v + k) mod 4 =
   0]: its out-links stay silent, so only insertions reach its peers.
   Returns every delivered word and heard-mask, the network's books,
   the timing-free JSONL trace and the Exact metrics. *)
let run_mp_blocks ?hooks ~per_round ~config ~adv ~width g =
  let module B = Network.Block in
  let net = Network.create g (adv g) in
  let sink = Trace.Sink.create () and reg = Metrics.Registry.create () in
  let ex =
    Live.Exec.create ~net ~config ~metrics:reg
      ~weights:(Array.init (Topology.Graph.n g) (Topology.Graph.degree g))
      ()
  in
  let sharded =
    if Live.Exec.is_serial ex then Trace.Sharded.disabled
    else Trace.Sharded.create ~shards:(Live.Exec.shards ex) ()
  in
  if Trace.Sharded.is_enabled sharded then begin
    Live.Exec.set_trace ex sharded;
    Network.set_trace net (Trace.Sharded.leader sharded)
  end
  else Network.set_trace net sink;
  Network.set_metrics net reg;
  Network.set_fault_hooks net hooks;
  let fields = 5 and rounds = 5 * width and two_m = 2 * Topology.Graph.m g in
  let got = Array.make (mp_blocks * two_m * fields * 2) (-1) in
  let slot k dir field = 2 * ((((k * two_m) + dir) * fields) + field) in
  Fun.protect
    ~finally:(fun () ->
      Live.Exec.shutdown ex;
      if Trace.Sharded.is_enabled sharded then Trace.Merge.into_sink sharded ~dst:sink)
    (fun () ->
      for k = 0 to mp_blocks - 1 do
        let owns ~shard v =
          let lo, hi = Live.Exec.bounds ex ~shard in
          v >= lo && v < hi
        in
        let label () = Network.set_phase net ~iteration:k ~phase:Netsim.Adversary.Meeting_points in
        let write ~shard out =
          for dir = 0 to two_m - 1 do
            let src, _ = Network.link_ends net ~dir in
            if owns ~shard src && (src + k) mod 4 <> 0 then
              for field = 0 to fields - 1 do
                B.set out ~dir ~field (Hashtbl.hash (k, dir, field) land ((1 lsl width) - 1))
              done
          done
        in
        let read ~shard inw =
          for dir = 0 to two_m - 1 do
            if owns ~shard (snd (Network.link_ends net ~dir)) then
              for field = 0 to fields - 1 do
                got.(slot k dir field) <- B.word inw ~dir ~field;
                got.(slot k dir field + 1) <- B.heard inw ~dir ~field
              done
          done
        in
        if per_round then per_round_block ex g ~label ~width ~rounds ~write ~read ()
        else Live.Exec.block ex ~label ~width ~rounds ~write ~read ()
      done;
      Live.Exec.join ex);
  ( got,
    Network.stats net,
    Trace.Export.jsonl ~timing:false sink,
    Metrics.Expo.exact_json (Metrics.Registry.snapshot reg) )

let mp_adversaries =
  let mp = [ Netsim.Adversary.Meeting_points ] in
  [
    ("iid", fun _ -> Netsim.Adversary.iid (Util.Rng.create 99) ~rate:0.05);
    ("fixing", fun _ -> Netsim.Adversary.iid_fixing (Util.Rng.create 98) ~rate:0.05);
    ( "burst",
      fun g ->
        Netsim.Adversary.burst (Util.Rng.create 97) ~start_round:20 ~len:40
          ~dirs:(List.init (Topology.Graph.m g) (fun e -> 2 * e)) );
    ( "adaptive",
      fun _ ->
        Netsim.Adversary.adaptive_phase_attack ~rate_denom:10 ~phases:mp (Util.Rng.create 96) );
  ]

(* Network-layer faults: a stalled link and an overload window. *)
let mp_fault_hooks =
  Faults.Plan.network_hooks
    (Faults.Plan.make ~key:"mp-block"
       [
         Faults.Plan.Link_stall { edge = 0; from_round = 10; rounds = 25 };
         Faults.Plan.Noise_overload { factor = 4.; from_round = 30; rounds = 60; rate = 0.02 };
       ])

let check_mp_oracle ?hooks name config =
  let g = Topology.Graph.random_connected (Util.Rng.create 7) ~n:6 ~extra_edges:3 in
  List.iter
    (fun width ->
      List.iter
        (fun (aname, adv) ->
          let name = Printf.sprintf "%s/%s/width %d" name aname width in
          let w_ref, s_ref, tr_ref, m_ref =
            run_mp_blocks ?hooks ~per_round:true ~config ~adv ~width g
          in
          let w, s, tr, m = run_mp_blocks ?hooks ~per_round:false ~config ~adv ~width g in
          Alcotest.(check bool) (name ^ ": noise landed") true (s_ref.Network.corruptions > 0);
          Alcotest.(check (array int)) (name ^ ": delivered words") w_ref w;
          Alcotest.(check bool) (name ^ ": stats") true (s_ref = s);
          Alcotest.(check string) (name ^ ": trace export") tr_ref tr;
          Alcotest.(check string) (name ^ ": exact metrics") m_ref m)
        mp_adversaries)
    [ 6; 30 ]

let test_mp_block_d0 () =
  (* d = 0: the serial block, and the one-job block on 2 and 4 domains. *)
  List.iter
    (fun shards ->
      check_mp_oracle (Printf.sprintf "d=0/shards=%d" shards) (Live.Config.make ~shards ()))
    [ 1; 2; 4 ]

let test_mp_block_d1 () =
  (* d = 1 on the keyed-jitter serial engine (deterministic): the block
     runs as its per-round fallback under the same jitter draws. *)
  List.iter
    (fun shards ->
      check_mp_oracle
        (Printf.sprintf "d=1/shards=%d" shards)
        (Live.Config.make ~shards ~ragged_d:1 ~jitter_rate:0.05 ~force_serial:true ()))
    [ 1; 2; 4 ]

let test_mp_block_faults () =
  List.iter
    (fun shards ->
      check_mp_oracle ?hooks:mp_fault_hooks
        (Printf.sprintf "faults/shards=%d" shards)
        (Live.Config.make ~shards ()))
    [ 1; 2; 4 ]

let () =
  Alcotest.run "live"
    [
      ( "shard",
        [
          Alcotest.test_case "partition properties" `Quick test_shard_partition_properties;
          Alcotest.test_case "degree balance" `Quick test_shard_balance;
        ] );
      ( "barrier",
        [
          Alcotest.test_case "two domains, 500 episodes" `Quick test_barrier_two_domains;
          Alcotest.test_case "giveup" `Quick test_barrier_giveup;
        ] );
      ( "exec",
        [
          Alcotest.test_case "round delivery, 2 domains" `Quick test_exec_round_delivery;
          Alcotest.test_case "block delivery" `Quick test_exec_block_delivery;
          Alcotest.test_case "worker exception" `Quick test_exec_worker_exception;
          Alcotest.test_case "sharded trace rings" `Quick test_exec_sharded_trace;
        ] );
      ( "differential",
        [
          Alcotest.test_case "live d=0 ≡ lockstep" `Quick test_differential_d0;
          Alcotest.test_case "under fault plans" `Quick test_differential_faults;
          Alcotest.test_case "trace streams" `Quick test_differential_trace_stream;
        ] );
      ( "mp block",
        [
          Alcotest.test_case "≡ per-round oracle, d=0" `Quick test_mp_block_d0;
          Alcotest.test_case "≡ per-round oracle, d=1" `Quick test_mp_block_d1;
          Alcotest.test_case "≡ per-round oracle, faults" `Quick test_mp_block_faults;
        ] );
      ( "ragged",
        [
          Alcotest.test_case "serial jitter deterministic" `Quick
            test_serial_ragged_deterministic;
          Alcotest.test_case "keyed jitter at any shard count" `Quick test_ragged_is_keyed_jitter;
        ] );
    ]
