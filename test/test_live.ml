(* Tests for lib/live and the ragged channel it configures: the
   jitter-unit partitioner, rounds and blocks committed to a network
   with keyed jitter installed ([Live.Config.install]), the round
   facade against [Network.commit], and — the backbone — the backend
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

(* ---------- Rounds and blocks under installed jitter ---------- *)

let line4 = Topology.Graph.line 4

(* A network on [g] with [config]'s jitter installed (none at d = 0),
   jitter units by degree. *)
let network ?(adv = Netsim.Adversary.Silent) ~config g =
  let net = Network.create g adv in
  Live.Config.install config net ~weights:(Array.init (Topology.Graph.n g) (Topology.Graph.degree g));
  net

(* The configurations the delivery cases run: 1 and 2 units at d = 0
   (nothing installed), and 2 units at d = 1 with no lag drawn (the
   jitter installed, every round and block routed through it). *)
let quiet_configs =
  [
    ("1 shard", Live.Config.default);
    ("2 shards", Live.Config.make ~shards:2 ());
    ("d=1", Live.Config.make ~shards:2 ~ragged_d:1 ~jitter_rate:0. ());
  ]

let test_exec_round_delivery () =
  (* A 4-party line committing 24 rounds: every round's rightward bit
     must be delivered in that round, and no symbol is booked as
     stalled or injected, installed jitter or not. *)
  List.iter
    (fun (name, config) ->
      let net = network ~config line4 in
      let buf = Network.active net in
      let missed = ref 0 in
      for r = 0 to 23 do
        Network.Active.begin_round buf;
        for v = 0 to 2 do
          Network.Active.send buf
            ~dir:(Topology.Graph.dir_id line4 ~src:v ~dst:(v + 1))
            (r land 1 = 1)
        done;
        Network.commit net buf;
        for v = 1 to 3 do
          match Network.Active.get buf ~dir:(Topology.Graph.dir_id line4 ~src:(v - 1) ~dst:v) with
          | Some b -> if b <> (r land 1 = 1) then incr missed
          | None -> incr missed
        done
      done;
      let st = Network.stats net in
      Alcotest.(check int) (name ^ ": all deliveries intact") 0 !missed;
      Alcotest.(check int) (name ^ ": rounds") 24 st.Network.rounds;
      Alcotest.(check int) (name ^ ": cc") (24 * 3) st.Network.cc;
      Alcotest.(check int) (name ^ ": no drops") 0 st.Network.stalled;
      Alcotest.(check int) (name ^ ": no stale") 0 st.Network.injected)
    quiet_configs;
  (* Jitter is installed once, with a lag bound, a rate in [0, 1] and a
     unit for each of the 2m dirs. *)
  let units = Array.make 6 0 in
  let bad = Invalid_argument "Network.set_jitter: d, rate or units out of range" in
  let net = Network.create line4 Netsim.Adversary.Silent in
  Alcotest.check_raises "d = 0" bad (fun () -> Network.set_jitter net ~d:0 ~rate:0.1 ~key:1L ~units);
  Alcotest.check_raises "nan rate" bad (fun () ->
      Network.set_jitter net ~d:1 ~rate:Float.nan ~key:1L ~units);
  Alcotest.check_raises "short units" bad (fun () ->
      Network.set_jitter net ~d:1 ~rate:0.1 ~key:1L ~units:[| 0 |]);
  Network.set_jitter net ~d:1 ~rate:0.1 ~key:1L ~units;
  Alcotest.check_raises "installed twice"
    (Invalid_argument "Network.set_jitter: jitter already installed") (fun () ->
      Network.set_jitter net ~d:1 ~rate:0.1 ~key:1L ~units)

let test_exec_block_delivery () =
  (* The same line carrying a 3-field block of width 8 (20 rounds, the
     last field cut short), with and without installed jitter (one
     commit, or the per-round path).  Every sender's words must arrive
     whole, bits past the 20th silent, and the books must count 20
     rounds. *)
  let words v = [| 0xA5 lxor v; 0x3C + v; 0x0F lsl v |] in
  (let net = network ~config:(Live.Config.make ~shards:2 ~ragged_d:1 ()) line4 in
   let out = Network.Block.create line4 ~width:8 ~fields:3 in
   let inw = Network.Block.create line4 ~width:8 ~fields:3 in
   Alcotest.check_raises "negative rounds"
     (Invalid_argument "Network.commit_block: rounds out of range") (fun () ->
       Network.commit_block net ~rounds:(-1) ~out ~inw);
   Alcotest.check_raises "rounds past the block"
     (Invalid_argument "Network.commit_block: rounds out of range") (fun () ->
       Network.commit_block net ~rounds:25 ~out ~inw);
   Alcotest.check_raises "no width" (Invalid_argument "Network.Block: width out of range")
     (fun () -> ignore (Network.Block.create line4 ~width:0 ~fields:3));
   Alcotest.check_raises "width past a word" (Invalid_argument "Network.Block: width out of range")
     (fun () -> ignore (Network.Block.create line4 ~width:Sys.int_size ~fields:3));
   Alcotest.(check int) "nothing committed" 0 (Network.stats net).Network.rounds);
  List.iter
    (fun (name, config) ->
      let net = network ~config line4 in
      let out = Network.Block.create line4 ~width:8 ~fields:3 in
      let inw = Network.Block.create line4 ~width:8 ~fields:3 in
      let bad = ref 0 in
      for _ = 1 to 3 do
        for dir = 0 to 5 do
          Network.Block.silence out ~dir
        done;
        for v = 0 to 2 do
          Array.iteri
            (fun field w ->
              Network.Block.set out ~dir:(Topology.Graph.dir_id line4 ~src:v ~dst:(v + 1)) ~field w)
            (words v)
        done;
        Network.commit_block net ~rounds:20 ~out ~inw;
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
        done
      done;
      Alcotest.(check int) (name ^ ": words intact") 0 !bad;
      Alcotest.(check int) (name ^ ": network rounds") 60 (Network.stats net).Network.rounds;
      Alcotest.(check int) (name ^ ": cc") (3 * 3 * 20) (Network.stats net).Network.cc)
    quiet_configs

let test_exec_callbacks_on_caller () =
  (* The round facade is [Network.commit]: at any unit count, lagging
     or not, a facade round calls [write] once, its label once and
     [read] once, on the calling domain, and leaves the same deliveries,
     books and trace events as a plain commit of the same sends on a
     twin network.  Blocks committed in between go through the jitter
     on both.  At d = 1 half of the (round, unit) pairs lag, so the
     jitter must really have stalled symbols. *)
  let self = Domain.self () in
  List.iter
    (fun (shards, d) ->
      let name = Printf.sprintf "shards=%d, d=%d" shards d in
      let config = Live.Config.make ~shards ~ragged_d:d ~jitter_rate:0.5 () in
      let sink_f = Trace.Sink.create () and sink_c = Trace.Sink.create () in
      let via_facade = Network.create line4 Netsim.Adversary.Silent in
      Network.set_trace via_facade sink_f;
      let ex = Live.Exec.create ~net:via_facade ~config ~weights:(Array.make 4 1) () in
      let plain = network ~config line4 in
      Network.set_trace plain sink_c;
      let buf = Network.active plain in
      let out = Network.Block.create line4 ~width:8 ~fields:2 in
      let inw = Network.Block.create line4 ~width:8 ~fields:2 in
      let calls = ref 0 in
      let note () =
        Alcotest.(check bool) (name ^ ": on the caller's domain") true (Domain.self () = self);
        incr calls
      in
      let sends r b = for dir = 0 to 5 do if (r + dir) mod 3 <> 0 then Network.Active.send b ~dir (dir land 1 = 0) done in
      for r = 0 to 19 do
        let seen = ref [] in
        Live.Exec.round ex
          ~label:(fun () ->
            note ();
            Network.set_phase via_facade ~iteration:r ~phase:Netsim.Adversary.Simulation)
          ~write:(fun ~shard b ->
            note ();
            Alcotest.(check int) (name ^ ": shard label") 0 shard;
            sends r b)
          ~read:(fun ~shard:_ b ->
            note ();
            Network.Active.iter b (fun ~dir bit -> seen := (dir, bit) :: !seen))
          ();
        Alcotest.(check int) (name ^ ": write, label and read once") 3 !calls;
        calls := 0;
        Network.Active.begin_round buf;
        sends r buf;
        Network.set_phase plain ~iteration:r ~phase:Netsim.Adversary.Simulation;
        Network.commit plain buf;
        let want = ref [] in
        Network.Active.iter buf (fun ~dir bit -> want := (dir, bit) :: !want);
        Alcotest.(check (list (pair int bool))) (name ^ ": round delivered") !want !seen;
        if r mod 7 = 6 then
          List.iter
            (fun net ->
              for dir = 0 to 5 do
                Network.Block.set out ~dir ~field:0 (r * dir);
                Network.Block.set out ~dir ~field:1 (r + dir)
              done;
              Network.commit_block net ~rounds:10 ~out ~inw)
            [ via_facade; plain ]
      done;
      Alcotest.(check bool) (name ^ ": books") true (Network.stats via_facade = Network.stats plain);
      Alcotest.(check string) (name ^ ": trace export") (Trace.Export.jsonl sink_c)
        (Trace.Export.jsonl sink_f);
      Alcotest.(check bool)
        (name ^ ": lags only under slack")
        (d > 0)
        ((Network.stats plain).Network.stalled > 0))
    [ (1, 0); (2, 0); (4, 0); (1, 1); (2, 1); (4, 1) ]

let test_config_default_shards () =
  (* The default jitter-unit count is a constant, not the host's core
     count, so a ragged run draws the same lags on every host. *)
  Alcotest.(check int) "default shards" 1 (Live.Config.make ()).Live.Config.shards;
  Alcotest.(check int) "Config.default shards" 1 Live.Config.default.Live.Config.shards;
  Alcotest.check_raises "nan jitter rate"
    (Invalid_argument "Live.Config.make: jitter_rate must be in [0,1]") (fun () ->
      ignore (Live.Config.make ~jitter_rate:Float.nan ()))

(* ---------- Backend differential ---------- *)

let graphs =
  [
    ("K5", fun () -> Topology.Graph.clique 5);
    ("line6", fun () -> Topology.Graph.line 6);
    ("random8", fun () -> Topology.Graph.random_connected (Util.Rng.create 7) ~n:8 ~extra_edges:4);
  ]

let run_backend ?(faults = Faults.Plan.empty) ?(rounds = 100) ?sink ~backend ~adv ~seed graph =
  let pi = Protocol.Protocols.random_chatter graph ~rounds ~density:0.5 ~seed:3 in
  let params = Coding.Params.algorithm_1 graph in
  Coding.Scheme.run_outcome
    ~config:(Coding.Scheme.Config.make ~trace:true ~faults ?sink ~backend ())
    ~rng:(Util.Rng.create seed) params pi (adv ())

(* The exact JSON of an Algorithm 1 run's projected metrics on [g]. *)
let exact_metrics g outcome =
  Metrics.Expo.exact_json
    (Coding.Report.metrics
       ~k:(Coding.Params.algorithm_1 g).Coding.Params.k
       ~m:(Topology.Graph.m g) outcome)

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
  (* An enabled sink on a 4-unit live backend: the normalized (timing-free)
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
  (* Keyed jitter in the network: same config twice gives the same
     degraded run, and the jitter really is booked — the diagnosis
     carries stalled/injected symbols and the outcome degrades.  Four
     units at d = 2 is the case where several units lag in one round
     into one pending slot, so the timing-free trace export (digests
     computed before lagging rounds were routed unit by unit) and the
     projected metrics are pinned: they fix the order in which a
     lagging round's symbols are stalled and surface.  On a line that
     order is ascending dir order; on the 4×4 grid a unit's
     out-directions interleave with its neighbours', so only routing
     unit by unit reproduces the digest. *)
  let g = Topology.Graph.line 6 in
  let backend = Coding.Scheme.Live (Live.Config.make ~shards:4 ~ragged_d:2 ~jitter_rate:0.2 ()) in
  let adv () = Netsim.Adversary.Silent in
  let digest s = Digest.to_hex (Digest.string s) in
  let pinned name ?rounds ~backend g ~trace ~exact =
    let sink = Trace.Sink.create () in
    let o = run_backend ?rounds ~sink ~backend ~adv ~seed:21 g in
    Alcotest.(check string) (name ^ ": trace export digest") trace
      (digest (Trace.Export.jsonl sink));
    Alcotest.(check string) (name ^ ": exact metrics digest") exact
      (digest (exact_metrics g o));
    o
  in
  let a =
    pinned "line6" ~backend g ~trace:"3ad9c562771fa6eb287de81b6798f60a"
      ~exact:"fbe794d6b832540f8e146899fa83029d"
  in
  let b = run_backend ~backend ~adv ~seed:21 g in
  check_identical "ragged repeat" a b;
  ignore
    (pinned "grid4x4" ~rounds:60
       ~backend:(Coding.Scheme.Live (Live.Config.make ~shards:4 ~ragged_d:2 ~jitter_rate:0.05 ()))
       (Topology.Graph.grid ~rows:4 ~cols:4)
       ~trace:"5d3abdca149a0f8d1a5596f4ffaed810" ~exact:"c3a185a3a9f843844c0cc3e42d06cea5");
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
     export and projected metrics — and matches the digests pinned when
     ragged runs were first keyed (so no change, the move of the
     jitter into the network included, has moved a lag draw).  No fault plan: every stalled or injected symbol is the
     jitter's. *)
  let g = Topology.Graph.line 6 in
  let go () =
    let sink = Trace.Sink.create () in
    let pi = Protocol.Protocols.random_chatter g ~rounds:100 ~density:0.5 ~seed:3 in
    let outcome =
      Coding.Scheme.run_outcome
        ~config:
          (Coding.Scheme.Config.make ~trace:true ~sink
             ~backend:
               (Coding.Scheme.Live (Live.Config.make ~shards:2 ~ragged_d:1 ~jitter_rate:0.05 ()))
             ())
        ~rng:(Util.Rng.create 23) (Coding.Params.algorithm_1 g) pi
        (Netsim.Adversary.iid (Util.Rng.create 99) ~rate:0.002)
    in
    (outcome, Trace.Export.jsonl sink, exact_metrics g outcome)
  in
  let o, tr, m = go () and o_ref, tr_ref, m_ref = go () in
  check_identical "d=1/shards=2" o_ref o;
  Alcotest.(check string) "trace export" tr_ref tr;
  Alcotest.(check string) "exact metrics" m_ref m;
  let digest s = Digest.to_hex (Digest.string s) in
  Alcotest.(check string) "trace export digest" "53a7ac25722427eaf905f2b1ee1ce660" (digest tr);
  Alcotest.(check string) "exact metrics digest" "012d6759a8d7ff17ac4fb86f9d20a2c7" (digest m);
  match Faults.Outcome.diagnosis o with
  | Some d ->
      Alcotest.(check bool) "jitter booked" true
        (d.Faults.Outcome.stalled_slots > 0 && d.Faults.Outcome.injected > 0)
  | None -> Alcotest.fail "expected a diagnosis"

let test_ragged_algorithm_a () =
  (* Algorithm A under keyed jitter: the seed exchange runs first, in
     lockstep, and the jitter's round 0 is the first meeting-points
     round.  The timing-free trace export and projected metrics are
     pinned from the tree in which the jitter lived in an execution
     engine that the exchange bypassed; jittering the exchange, or
     counting the jitter's rounds from the network's round 0, moves
     both digests. *)
  let g = Topology.Graph.clique 4 in
  let params = Coding.Params.algorithm_a g in
  let sink = Trace.Sink.create () in
  let pi = Protocol.Protocols.random_chatter g ~rounds:60 ~density:0.5 ~seed:3 in
  let o =
    Coding.Scheme.run_outcome
      ~config:
        (Coding.Scheme.Config.make ~trace:true ~sink
           ~backend:
             (Coding.Scheme.Live (Live.Config.make ~shards:2 ~ragged_d:1 ~jitter_rate:0.005 ()))
           ())
      ~rng:(Util.Rng.create 29) params pi
      (Netsim.Adversary.iid (Util.Rng.create 99) ~rate:0.002)
  in
  let digest s = Digest.to_hex (Digest.string s) in
  let exact =
    Metrics.Expo.exact_json
      (Coding.Report.metrics ~k:params.Coding.Params.k ~m:(Topology.Graph.m g) o)
  in
  Alcotest.(check string) "trace export digest" "4f7628a13f1b6e8d795f8ffb33b788ef"
    (digest (Trace.Export.jsonl sink));
  Alcotest.(check string) "exact metrics digest" "eb8ddb55829b9b6c615c9af7e8d312ab" (digest exact);
  match o with
  | Faults.Outcome.Degraded (r, d) ->
      Alcotest.(check bool) "success" true r.Coding.Scheme.success;
      Alcotest.(check int) "exchange failures" 0 r.Coding.Scheme.exchange_failures;
      Alcotest.(check (pair int int)) "jitter books" (348, 348)
        (d.Faults.Outcome.stalled_slots, d.Faults.Outcome.injected)
  | o -> Alcotest.fail ("expected degraded, got " ^ Faults.Outcome.label o)

let test_touched_covers_jitter () =
  (* [Network.touched] under installed jitter: over random windows of
     1..6 rounds with random sends (a dir speaks with probability 3/4),
     every dir whose delivered symbol differs from the one sent in some
     round of the window was reported touched before the window.  The
     adversary is silent, so every change is the jitter's: a lagging
     unit's stall, or a symbol surfacing on a dir left silent. *)
  let g = Topology.Graph.grid ~rows:3 ~cols:3 in
  let two_m = 2 * Topology.Graph.m g in
  List.iter
    (fun (shards, d) ->
      let name = Printf.sprintf "shards=%d, d=%d" shards d in
      let net = network ~config:(Live.Config.make ~shards ~ragged_d:d ~jitter_rate:0.15 ()) g in
      let r = Util.Rng.create (shards + (10 * d)) in
      let buf = Network.active net and touched = Array.make two_m false in
      let sent = Array.make two_m None in
      let altered = ref 0 and missed = ref 0 and clean = ref 0 in
      for _ = 1 to 300 do
        let rounds = 1 + Util.Rng.int r 6 in
        Network.touched net ~rounds touched;
        for _ = 1 to rounds do
          Network.Active.begin_round buf;
          for dir = 0 to two_m - 1 do
            sent.(dir) <- (if Util.Rng.int r 4 = 0 then None else Some (Util.Rng.bool r));
            Option.iter (Network.Active.send buf ~dir) sent.(dir)
          done;
          Network.commit net buf;
          for dir = 0 to two_m - 1 do
            if Network.Active.get buf ~dir <> sent.(dir) then begin
              incr altered;
              if not touched.(dir) then incr missed
            end
          done
        done;
        if not (Array.exists Fun.id touched) then incr clean
      done;
      Alcotest.(check int) (name ^ ": every altered dir was reported") 0 !missed;
      Alcotest.(check bool) (name ^ ": the jitter altered symbols") true (!altered > 0);
      Alcotest.(check bool) (name ^ ": some windows untouched") true (!clean > 0))
    [ (1, 1); (3, 1); (3, 2) ]

(* ---------- Meeting-points block vs the per-round oracle ----------

   The meeting-points exchange's shape: every live party sends a
   five-field message of [width]-bit words on each of its links, every
   bit fixed before the first round.  The same words go once through
   [Network.commit_block] and once through the reference — one
   [Network.commit] per wire bit, round t carrying bit t of every
   message, the loop the scheme's meeting-points phase ran before it
   became one block — on networks with the same jitter installed.  The
   reference packs into and unpacks from private blocks, so nothing in
   it goes through [Network.commit_block].  The scheme end to end is
   pinned by the Alg 1/A/B, fault and export goldens in test_coding,
   test_faults and test_trace. *)
let per_round_block net g ~width ~rounds ~write ~read =
  let module B = Network.Block in
  let fields = (rounds + width - 1) / width and two_m = 2 * Topology.Graph.m g in
  let outs = B.create g ~width ~fields and ins = B.create g ~width ~fields in
  let buf = Network.active net in
  write outs;
  for t = 0 to rounds - 1 do
    Network.Active.begin_round buf;
    for dir = 0 to two_m - 1 do
      match B.get outs ~dir ~round:t with Some b -> Network.Active.send buf ~dir b | None -> ()
    done;
    Network.commit net buf;
    Network.Active.iter buf (fun ~dir b -> B.send ins ~dir ~round:t b)
  done;
  read ins

let mp_blocks = 4

(* [mp_blocks] meeting-points-shaped blocks on a fresh, traced network
   with [config]'s jitter installed.  In block [k] party [v] is down
   when [(v + k) mod 4 = 0]: its out-links stay silent, so only
   insertions reach its peers.  Returns every delivered word and
   heard-mask, the network's books and the timing-free JSONL trace. *)
let run_mp_blocks ?hooks ~per_round ~config ~adv ~width g =
  let module B = Network.Block in
  let net = network ~adv:(adv g) ~config g in
  let sink = Trace.Sink.create () in
  Network.set_trace net sink;
  Network.set_fault_hooks net hooks;
  let fields = 5 and rounds = 5 * width and two_m = 2 * Topology.Graph.m g in
  let out = B.create g ~width ~fields and inw = B.create g ~width ~fields in
  let got = Array.make (mp_blocks * two_m * fields * 2) (-1) in
  let slot k dir field = 2 * ((((k * two_m) + dir) * fields) + field) in
  for k = 0 to mp_blocks - 1 do
    Network.set_phase net ~iteration:k ~phase:Netsim.Adversary.Meeting_points;
    let write out =
      for dir = 0 to two_m - 1 do
        let src, _ = Network.link_ends net ~dir in
        B.silence out ~dir;
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
    if per_round then per_round_block net g ~width ~rounds ~write ~read
    else begin
      write out;
      Network.commit_block net ~rounds ~out ~inw;
      read inw
    end
  done;
  (got, Network.stats net, Trace.Export.jsonl sink)

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
          let w_ref, s_ref, tr_ref = run_mp_blocks ?hooks ~per_round:true ~config ~adv ~width g in
          let w, s, tr = run_mp_blocks ?hooks ~per_round:false ~config ~adv ~width g in
          Alcotest.(check bool) (name ^ ": noise landed") true (s_ref.Network.corruptions > 0);
          Alcotest.(check (array int)) (name ^ ": delivered words") w_ref w;
          Alcotest.(check bool) (name ^ ": stats") true (s_ref = s);
          Alcotest.(check string) (name ^ ": trace export") tr_ref tr;
          Alcotest.(check int) (name ^ ": network rounds") (mp_blocks * 5 * width) s.Network.rounds)
        mp_adversaries)
    [ 6; 30 ]

let test_mp_block_d0 () =
  (* d = 0: nothing installed, one word transform per block, at 1, 2
     and 4 shards. *)
  List.iter
    (fun shards ->
      check_mp_oracle (Printf.sprintf "d=0/shards=%d" shards) (Live.Config.make ~shards ()))
    [ 1; 2; 4 ]

let test_mp_block_d1 () =
  (* d = 1 under keyed jitter (deterministic): the block runs as routed
     per-round commits under the same jitter draws. *)
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
          Alcotest.test_case "exchange then jitter, Algorithm A" `Quick test_ragged_algorithm_a;
          Alcotest.test_case "touched covers the jitter" `Quick test_touched_covers_jitter;
        ] );
    ]
