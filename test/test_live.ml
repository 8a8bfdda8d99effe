(* Tests for lib/live: the jitter-unit partitioner, the execution
   engine's round semantics, and — the backbone — the backend
   differential: the scheme on [Live] with d = 0 must be byte-identical
   to [Lockstep] across topologies, adversaries, fault plans and shard
   counts. *)

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
  let sh = Live.Shard.partition ~weights:(Array.init 64 (Topology.Graph.degree g)) ~shards:4 in
  Alcotest.(check int) "4 shards" 4 (Live.Shard.shards sh);
  let _, hub_hi = Live.Shard.range sh (Live.Shard.owner sh 0) in
  Alcotest.(check bool) "hub shard is lean" true (hub_hi <= 32)

(* ---------- Exec: raw round semantics ---------- *)

let line4 = Topology.Graph.line 4

let test_exec_round_delivery () =
  (* A 4-party line driven for 24 rounds on 2 shards, d = 0: every
     round's rightward bit must be delivered in that round, and the
     lockstep engine must book zero jitter.  One write and one read
     cover every party. *)
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
      let missed = ref 0 in
      for r = 0 to 23 do
        Live.Exec.round ex
          ~write:(fun ~shard:_ buf ->
            for v = 0 to 2 do
              Network.Active.send buf
                ~dir:(Topology.Graph.dir_id line4 ~src:v ~dst:(v + 1))
                (r land 1 = 1)
            done)
          ~read:(fun ~shard:_ master ->
            for v = 1 to 3 do
              match
                Network.Active.get master ~dir:(Topology.Graph.dir_id line4 ~src:(v - 1) ~dst:v)
              with
              | Some b -> if b <> (r land 1 = 1) then incr missed
              | None -> incr missed
            done)
          ()
      done;
      Alcotest.(check int) "all deliveries intact" 0 !missed;
      Alcotest.(check int) "rounds_run" 24 (Live.Exec.rounds_run ex);
      Alcotest.(check int) "cc" (24 * 3) (Network.stats net).Network.cc;
      Alcotest.(check int) "d=0 books no drops" 0 (Live.Exec.jitter_dropped ex);
      Alcotest.(check int) "d=0 books no stale" 0 (Live.Exec.jitter_surfaced ex))

let test_exec_block_delivery () =
  (* The same line carrying a 3-field block of width 8 (20 rounds, the
     last field cut short), each engine shape: 1 and 2 shards at d = 0
     (one commit), and the keyed-jitter engine at d = 1 with no jitter
     (the per-round fallback).  Every sender's words must
     arrive whole, bits past the 20th silent, and the books must count
     20 rounds. *)
  let words v = [| 0xA5 lxor v; 0x3C + v; 0x0F lsl v |] in
  (let ex =
     Live.Exec.create
       ~net:(Network.create line4 Netsim.Adversary.Silent)
       ~config:Live.Config.default ~weights:(Array.make 4 1) ()
   in
   let nop _ = () in
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
          let bad = ref 0 in
          for _ = 1 to 3 do
            Live.Exec.block ex ~width:8 ~rounds:20
              ~write:(fun out ->
                for v = 0 to 2 do
                  Array.iteri
                    (fun field w ->
                      Network.Block.set out
                        ~dir:(Topology.Graph.dir_id line4 ~src:v ~dst:(v + 1))
                        ~field w)
                    (words v)
                done)
              ~read:(fun inw ->
                for v = 1 to 3 do
                  let dir = Topology.Graph.dir_id line4 ~src:(v - 1) ~dst:v in
                  Array.iteri
                    (fun field w ->
                      let keep = if field = 2 then 0xF else 0xFF in
                      if Network.Block.word inw ~dir ~field <> w land keep then incr bad;
                      if Network.Block.heard inw ~dir ~field <> keep then incr bad)
                    (words (v - 1));
                  (* Nobody speaks leftward: those directions stay silent. *)
                  let back = Topology.Graph.dir_id line4 ~src:v ~dst:(v - 1) in
                  for field = 0 to 2 do
                    if Network.Block.heard inw ~dir:back ~field <> 0 then incr bad
                  done
                done)
              ()
          done;
          Alcotest.(check int) (name ^ ": words intact") 0 !bad;
          Alcotest.(check int) (name ^ ": rounds_run") 60 (Live.Exec.rounds_run ex);
          Alcotest.(check int) (name ^ ": network rounds") 60 (Network.stats net).Network.rounds;
          Alcotest.(check int) (name ^ ": cc") (3 * 3 * 20) (Network.stats net).Network.cc))
    [
      ("1 shard", Live.Config.default);
      ("2 shards", Live.Config.make ~shards:2 ());
      ("d=1", Live.Config.make ~shards:2 ~ragged_d:1 ~jitter_rate:0. ());
    ]

let test_exec_callbacks_on_caller () =
  (* The callback contract: at any shard count, lagging or not, every
     round and every block calls [write] once and [read] once, on the
     domain that issued it.  At d = 1 half of the (round, unit) pairs
     lag, so most rounds route their sends through the scratch buffer
     — and the jitter must really have stalled symbols there. *)
  let self = Domain.self () in
  List.iter
    (fun (shards, d) ->
      let name = Printf.sprintf "shards=%d, d=%d" shards d in
      let net = Network.create line4 Netsim.Adversary.Silent in
      let config = Live.Config.make ~shards ~ragged_d:d ~jitter_rate:0.5 () in
      let ex = Live.Exec.create ~net ~config ~weights:(Array.make 4 1) () in
      let writes = ref 0 and reads = ref 0 in
      let note count =
        Alcotest.(check bool) (name ^ ": on the caller's domain") true (Domain.self () = self);
        incr count
      in
      let once what =
        Alcotest.(check (pair int int)) (name ^ ": " ^ what ^ " write and read once") (1, 1)
          (!writes, !reads);
        writes := 0;
        reads := 0
      in
      Fun.protect
        ~finally:(fun () -> Live.Exec.shutdown ex)
        (fun () ->
          for _ = 1 to 20 do
            Live.Exec.round ex
              ~write:(fun ~shard:_ buf ->
                note writes;
                for dir = 0 to 5 do
                  Network.Active.send buf ~dir true
                done)
              ~read:(fun ~shard:_ _ -> note reads)
              ();
            once "round"
          done;
          for _ = 1 to 3 do
            Live.Exec.block ex ~width:8 ~rounds:10
              ~write:(fun _ -> note writes)
              ~read:(fun _ -> note reads)
              ();
            once "block"
          done);
      Alcotest.(check bool)
        (name ^ ": lags only under slack")
        (d > 0)
        (Live.Exec.jitter_dropped ex > 0))
    [ (1, 0); (2, 0); (4, 0); (1, 1); (2, 1); (4, 1) ]

let test_config_default_shards () =
  (* The default jitter-unit count is a constant, not the host's core
     count, so a ragged run draws the same lags on every host. *)
  Alcotest.(check int) "default shards" 1 (Live.Config.make ()).Live.Config.shards;
  Alcotest.(check int) "Config.default shards" 1 Live.Config.default.Live.Config.shards

(* ---------- Backend differential ---------- *)

let graphs =
  [
    ("K5", fun () -> Topology.Graph.clique 5);
    ("line6", fun () -> Topology.Graph.line 6);
    ("random8", fun () -> Topology.Graph.random_connected (Util.Rng.create 7) ~n:8 ~extra_edges:4);
  ]

let run_backend ?(faults = Faults.Plan.empty) ?(rounds = 100) ?sink ?metrics ~backend ~adv ~seed
    graph =
  let pi = Protocol.Protocols.random_chatter graph ~rounds ~density:0.5 ~seed:3 in
  let params = Coding.Params.algorithm_1 graph in
  Coding.Scheme.run_outcome
    ~config:(Coding.Scheme.Config.make ~trace:true ~faults ?sink ?metrics ~backend ())
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
  (* An enabled sink on a 4-shard engine: the normalized (timing-free)
     trace streams must match the reference backend character for
     character — same probes, same order, same arguments. *)
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
  (* The keyed-jitter engine: same config twice gives the same
     degraded run, and the jitter really is booked — the diagnosis
     carries stalled/injected symbols and the outcome degrades.  Four
     units at d = 2 is the case where several units lag in one round
     into one pending slot, so the timing-free trace export and the
     Exact metrics are pinned (digests computed before the engine
     routed lagging rounds itself): they fix the order in which a
     lagging round's symbols are stalled and surface.  On a line that
     order is ascending dir order; on the 4×4 grid a unit's
     out-directions interleave with its neighbours', so only routing
     unit by unit reproduces the digest. *)
  let g = Topology.Graph.line 6 in
  let backend = Coding.Scheme.Live (Live.Config.make ~shards:4 ~ragged_d:2 ~jitter_rate:0.2 ()) in
  let adv () = Netsim.Adversary.Silent in
  let digest s = Digest.to_hex (Digest.string s) in
  let pinned name ?rounds ~backend g ~trace ~exact =
    let sink = Trace.Sink.create () and reg = Metrics.Registry.create () in
    let o = run_backend ?rounds ~sink ~metrics:reg ~backend ~adv ~seed:21 g in
    Alcotest.(check string) (name ^ ": trace export digest") trace
      (digest (Trace.Export.jsonl sink));
    Alcotest.(check string) (name ^ ": exact metrics digest") exact
      (digest (Metrics.Expo.exact_json (Metrics.Registry.snapshot reg)));
    o
  in
  let a =
    pinned "line6" ~backend g ~trace:"3ad9c562771fa6eb287de81b6798f60a"
      ~exact:"d6486efbf3137aedc811a2ff606043f9"
  in
  let b = run_backend ~backend ~adv ~seed:21 g in
  check_identical "ragged repeat" a b;
  ignore
    (pinned "grid4x4" ~rounds:60
       ~backend:(Coding.Scheme.Live (Live.Config.make ~shards:4 ~ragged_d:2 ~jitter_rate:0.05 ()))
       (Topology.Graph.grid ~rows:4 ~cols:4)
       ~trace:"5d3abdca149a0f8d1a5596f4ffaed810" ~exact:"a0b50f38b16707c7abb72331f5e0105d");
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
           (Live.Config.make ~shards:4 ~ragged_d:0 ~jitter_rate:0.2 ()))
      ~adv ~seed:21 g
  in
  Alcotest.(check string) "d=0 stays clean" "completed" (Faults.Outcome.label d0)

let test_ragged_is_keyed_jitter () =
  (* Ragged synchrony is keyed jitter, drawn per (round, shard): a
     2-shard d = 1 run reproduces exactly — outcome, timing-free trace
     export and Exact metrics — and matches the digests pinned when
     ragged runs were first keyed (so no engine change has moved a lag
     draw).  No fault plan: every stalled or injected symbol is the
     jitter's. *)
  let g = Topology.Graph.line 6 in
  let go () =
    let sink = Trace.Sink.create () and reg = Metrics.Registry.create () in
    let pi = Protocol.Protocols.random_chatter g ~rounds:100 ~density:0.5 ~seed:3 in
    let outcome =
      Coding.Scheme.run_outcome
        ~config:
          (Coding.Scheme.Config.make ~sink ~metrics:reg
             ~backend:
               (Coding.Scheme.Live (Live.Config.make ~shards:2 ~ragged_d:1 ~jitter_rate:0.05 ()))
             ())
        ~rng:(Util.Rng.create 23) (Coding.Params.algorithm_1 g) pi
        (Netsim.Adversary.iid (Util.Rng.create 99) ~rate:0.002)
    in
    ( outcome,
      Trace.Export.jsonl sink,
      Metrics.Expo.exact_json (Metrics.Registry.snapshot reg) )
  in
  let o, tr, m = go () and o_ref, tr_ref, m_ref = go () in
  check_identical "d=1/shards=2" o_ref o;
  Alcotest.(check string) "trace export" tr_ref tr;
  Alcotest.(check string) "exact metrics" m_ref m;
  let digest s = Digest.to_hex (Digest.string s) in
  Alcotest.(check string) "trace export digest" "53a7ac25722427eaf905f2b1ee1ce660" (digest tr);
  Alcotest.(check string) "exact metrics digest" "6dca4461c3bbe6b40bcd1a4b52e64100" (digest m);
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
   became one block.  The reference packs into and unpacks from
   private blocks, so nothing in it goes through
   [Live.Exec.block] or [Network.commit_block].  The scheme end to end
   is pinned by the Alg 1/A/B, fault and export goldens in test_coding,
   test_faults and test_trace. *)
let per_round_block ex g ?label ~width ~rounds ~write ~read () =
  let module B = Network.Block in
  let fields = (rounds + width - 1) / width and two_m = 2 * Topology.Graph.m g in
  let outs = B.create g ~width ~fields and ins = B.create g ~width ~fields in
  for t = 0 to rounds - 1 do
    Live.Exec.round ex
      ?label:(if t = 0 then label else None)
      ~write:(fun ~shard:_ buf ->
        if t = 0 then write outs;
        for dir = 0 to two_m - 1 do
          match B.get outs ~dir ~round:t with
          | Some b -> Network.Active.send buf ~dir b
          | None -> ()
        done)
      ~read:(fun ~shard:_ master ->
        for dir = 0 to two_m - 1 do
          match Network.Active.get master ~dir with
          | Some b -> B.send ins ~dir ~round:t b
          | None -> ()
        done;
        if t = rounds - 1 then read ins)
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
  Network.set_trace net sink;
  Network.set_metrics net reg;
  Network.set_fault_hooks net hooks;
  let fields = 5 and rounds = 5 * width and two_m = 2 * Topology.Graph.m g in
  let got = Array.make (mp_blocks * two_m * fields * 2) (-1) in
  let slot k dir field = 2 * ((((k * two_m) + dir) * fields) + field) in
  Fun.protect
    ~finally:(fun () -> Live.Exec.shutdown ex)
    (fun () ->
      for k = 0 to mp_blocks - 1 do
        let label () = Network.set_phase net ~iteration:k ~phase:Netsim.Adversary.Meeting_points in
        let write out =
          for dir = 0 to two_m - 1 do
            let src, _ = Network.link_ends net ~dir in
            if (src + k) mod 4 <> 0 then
              for field = 0 to fields - 1 do
                B.set out ~dir ~field (Hashtbl.hash (k, dir, field) land ((1 lsl width) - 1))
              done
          done
        in
        let read inw =
          for dir = 0 to two_m - 1 do
            for field = 0 to fields - 1 do
              got.(slot k dir field) <- B.word inw ~dir ~field;
              got.(slot k dir field + 1) <- B.heard inw ~dir ~field
            done
          done
        in
        if per_round then per_round_block ex g ~label ~width ~rounds ~write ~read ()
        else Live.Exec.block ex ~label ~width ~rounds ~write ~read ()
      done);
  ( got,
    Network.stats net,
    Trace.Export.jsonl sink,
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
  (* d = 0: one commit per block, at 1, 2 and 4 shards. *)
  List.iter
    (fun shards ->
      check_mp_oracle (Printf.sprintf "d=0/shards=%d" shards) (Live.Config.make ~shards ()))
    [ 1; 2; 4 ]

let test_mp_block_d1 () =
  (* d = 1 under keyed jitter (deterministic): the block runs as its
     per-round fallback under the same jitter draws. *)
  List.iter
    (fun shards ->
      check_mp_oracle
        (Printf.sprintf "d=1/shards=%d" shards)
        (Live.Config.make ~shards ~ragged_d:1 ~jitter_rate:0.05 ()))
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
      ( "exec",
        [
          Alcotest.test_case "round delivery, 2 shards" `Quick test_exec_round_delivery;
          Alcotest.test_case "block delivery" `Quick test_exec_block_delivery;
          Alcotest.test_case "callbacks on the caller's domain" `Quick
            test_exec_callbacks_on_caller;
          Alcotest.test_case "default shards is 1" `Quick test_config_default_shards;
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
