(* SCALE — the sparse active-link transport at 1k–10k parties.

   Sweeps the link count m over four topology families — grid, torus,
   hypercube, random-regular — and measures, per (family, n):

   - generator + graph-op cost: graph build wall time (the random-regular
     pairing is O(n·degree) per attempt since the swap-remove pool fix),
     exact diameter wall time (iFUB: a handful of BFS passes, not
     all-pairs), and edge-id lookup latency (binary search over sorted
     adjacency — the per-party O(n) lookup arrays are gone);
   - raw transport rounds/sec of [Network.commit] (Exp_common's raw
     transport timer, best of 3 runs) under two traffic shapes:
     {e few-active} (16 links speak; the regime the sparse API exists
     for — per-round cost must stay O(active), independent of 2m) and
     {e full-duplex} (every directed link speaks; the sparse worst case);
   - one compiled flag-passing phase over the BFS tree, run by
     [Flag_passing.run_exec] on a default engine, the phase
     driver whose per-round cost is O(speaking level);
   - peak resident memory ([Util.Mem.peak_rss_kb], monotone across the
     sweep) and the GC heap high-water mark.

   The sublinearity evidence is the per-family summary: when 2m grows by
   a factor F across the sweep, the few-active per-round cost must stay
   near flat.

   The network runs a silent adversary.  An oblivious pattern hands the
   network only a round's nonzero entries, but producing them is the
   pattern's own cost: iid noise still draws once per direction
   (insertions can land anywhere), O(2m) per round on any transport,
   while a burst or a single slot costs only its own slots — the sparse
   fast path is about rounds the adversary leaves alone.  Noise-equivalence of
   [commit] and the dense reference round is the netsim differential
   suite's job, not this bench's.

   Results go to stdout and BENCH_scale.json (picked up by
   `bench/main.exe report`; *_per_sec / wall / rss metrics are
   tolerance-classified, counts and diameters exactly). *)

module Network = Netsim.Network

type row = {
  family : string;
  n : int;
  m : int;
  gen_wall_s : float;
  diameter : int;
  diameter_wall_s : float;
  edge_id_ns : float;
  few_sparse_per_sec : float;
  full_sparse_per_sec : float;
  flag_wall_s : float;
  rss_kb : int;
  heap_kb : int;
}

(* Rounds/sec of the raw transport timer, best of 3 runs on a fresh
   network under a silent adversary. *)
let raw_per_sec g ~rounds ~send =
  Exp_common.per_sec ~rounds
    (Exp_common.best_of ~reps:3 (fun () ->
         Exp_common.raw_rounds (Network.create g Netsim.Adversary.Silent) ~rounds ~send))

(* Few-active traffic: [active] fixed directed links speak each round. *)
let bench_few g ~rounds ~active =
  let two_m = 2 * Topology.Graph.m g in
  let k = min active two_m in
  let dirs = Array.init k (fun i -> i * (two_m / k)) in
  raw_per_sec g ~rounds ~send:(fun act r ->
      Array.iter (fun d -> Network.Active.send act ~dir:d ((r + d) land 1 = 0)) dirs)

let bench_full g ~rounds =
  let two_m = 2 * Topology.Graph.m g in
  raw_per_sec g ~rounds ~send:(fun act r ->
      for d = 0 to two_m - 1 do
        Network.Active.send act ~dir:d ((r + d) land 1 = 0)
      done)

let bench_edge_id g ~lookups =
  let edges = Topology.Graph.edges g in
  let ne = Array.length edges in
  let acc = ref 0 in
  let (), wall =
    Exp_common.time (fun () ->
        for i = 0 to lookups - 1 do
          let u, v = edges.(i mod ne) in
          acc := !acc + Topology.Graph.edge_id g u v
        done)
  in
  ignore !acc;
  wall *. 1e9 /. float_of_int lookups

let bench_flag g =
  let n = Topology.Graph.n g in
  let net = Network.create g Netsim.Adversary.Silent in
  let tree = Topology.Graph.bfs_tree g in
  let sched = Coding.Flag_passing.compile g ~tree in
  let ex = Live.Exec.create ~net ~config:Live.Config.default ~weights:(Array.make n 1) () in
  let statuses = Array.make n true in
  let agg = Array.make n false and net_correct = Array.make n false in
  let (), wall =
    Exp_common.time (fun () -> Coding.Flag_passing.run_exec ex sched ~statuses ~agg ~net_correct)
  in
  Live.Exec.shutdown ex;
  wall

let measure ~few_rounds_sparse ~ops_budget (family, build) =
  let g, gen_wall_s = Exp_common.time build in
  let n = Topology.Graph.n g and m = Topology.Graph.m g in
  let two_m = 2 * m in
  let diameter, diameter_wall_s = Exp_common.time (fun () -> Topology.Graph.diameter g) in
  let edge_id_ns = bench_edge_id g ~lookups:200_000 in
  (* Full-duplex rounds scale down with 2m so every row costs about the
     same wall time; rounds/sec normalizes the counts away. *)
  let full_rounds = max 100 (ops_budget / (4 * two_m)) in
  let few_sparse_per_sec = bench_few g ~rounds:few_rounds_sparse ~active:16 in
  let full_sparse_per_sec = bench_full g ~rounds:full_rounds in
  let flag_wall_s = bench_flag g in
  {
    family;
    n;
    m;
    gen_wall_s;
    diameter;
    diameter_wall_s;
    edge_id_ns;
    few_sparse_per_sec;
    full_sparse_per_sec;
    flag_wall_s;
    rss_kb = Util.Mem.peak_rss_kb ();
    heap_kb = Util.Mem.heap_top_kb ();
  }

let families ~sizes =
  let grid side = ("grid", fun () -> Topology.Graph.grid ~rows:side ~cols:side) in
  let torus side = ("torus", fun () -> Topology.Graph.torus ~rows:side ~cols:side) in
  let cube d = ("hypercube", fun () -> Topology.Graph.hypercube d) in
  let rr n =
    ("random-regular", fun () -> Topology.Graph.random_regular (Util.Rng.create 5) ~n ~degree:4)
  in
  List.concat_map
    (fun (side, d, n) -> [ grid side; torus side; cube d; rr n ])
    sizes

(* Per-family cost growth across the sweep: cost ratio = per_sec(small)
   / per_sec(large); sublinear means the sparse few-active ratio stays
   well under the 2m ratio. *)
let sublinearity rows =
  let fams = List.sort_uniq compare (List.map (fun r -> r.family) rows) in
  List.map
    (fun fam ->
      let rs = List.filter (fun r -> r.family = fam) rows in
      let small = List.hd rs and large = List.hd (List.rev rs) in
      let ratio a b = a /. b in
      ( fam,
        ratio (float_of_int large.m) (float_of_int small.m),
        ratio small.few_sparse_per_sec large.few_sparse_per_sec ))
    fams

let json_of rows subs =
  let module J = Util.Json in
  let row r =
    J.obj
      [
        ("key", J.str (Printf.sprintf "%s:%d" r.family r.n));
        ("n", J.int r.n);
        ("m", J.int r.m);
        ("gen_wall_s", J.num r.gen_wall_s);
        ("diameter", J.int r.diameter);
        ("diameter_wall_s", J.num r.diameter_wall_s);
        ("edge_id_ns", J.num r.edge_id_ns);
        ("few_sparse_per_sec", J.num r.few_sparse_per_sec);
        ("full_sparse_per_sec", J.num r.full_sparse_per_sec);
        ("flag_phase_wall_s", J.num r.flag_wall_s);
        ("peak_rss_kb", J.num (float_of_int r.rss_kb));
        ("heap_top_kb", J.num (float_of_int r.heap_kb));
      ]
  in
  let sub (fam, mr, sr) =
    J.obj
      [
        ("key", J.str fam);
        ("m_growth", J.num mr);
        ("sparse_few_cost_growth_speedup", J.num sr);
      ]
  in
  J.obj
    [
      ("bench", J.str "scale");
      ("rows", J.arr (List.map row rows));
      ("sublinearity", J.arr (List.map sub subs));
      ("sweep_peak_rss_kb", J.num (float_of_int (Util.Mem.peak_rss_kb ())));
    ]

let run_with ~sizes ~few_rounds_sparse ~ops_budget ~json () =
  Exp_common.heading "SCALE |  sparse active-link transport at 1k-10k parties";
  Format.printf "  %-15s %6s %7s | %8s %9s %8s | %12s %12s | %8s %9s@." "family" "n" "m"
    "gen ms" "diam(ms)" "eid ns" "few sparse/s" "full sparse/s" "flag ms" "rss MiB";
  let rows =
    List.map
      (fun (fam, build) ->
        let r = measure ~few_rounds_sparse ~ops_budget (fam, build) in
        Format.printf "  %-15s %6d %7d | %8.1f %4d(%3.0f) %8.0f | %12.0f %12.0f | %8.2f %9.1f@."
          r.family r.n r.m (1e3 *. r.gen_wall_s) r.diameter (1e3 *. r.diameter_wall_s)
          r.edge_id_ns r.few_sparse_per_sec r.full_sparse_per_sec (1e3 *. r.flag_wall_s)
          (float_of_int r.rss_kb /. 1024.);
        r)
      (families ~sizes)
  in
  let subs = sublinearity rows in
  Exp_common.subheading
    "sublinearity: cost growth across the sweep (few-active traffic; 1.0 = flat)";
  List.iter
    (fun (fam, mr, sr) -> Format.printf "  %-15s m grew %5.1fx | sparse cost %5.2fx@." fam mr sr)
    subs;
  Exp_common.write_json json (json_of rows subs);
  (rows, subs)

(* The published sweep: 1k, 4k and 8-10k parties per family (the 4096-
   party torus is the acceptance anchor; random-regular and grid reach
   10k). *)
let run () =
  ignore
    (run_with
       ~sizes:[ (32, 10, 1024); (64, 12, 4096); (100, 13, 10000) ]
       ~few_rounds_sparse:100_000 ~ops_budget:60_000_000 ~json:(Some "BENCH_scale.json") ())

(* Tiny variant for `dune runtest` (scale-smoke alias): 64–256 parties,
   a few thousand rounds, no JSON; asserts the shape of the results. *)
let smoke ?json () =
  let rows, subs =
    run_with
      ~sizes:[ (8, 6, 64); (16, 8, 256) ]
      ~few_rounds_sparse:4_000 ~ops_budget:1_000_000 ~json ()
  in
  assert (List.length rows = 8);
  assert (List.length subs = 4);
  List.iter
    (fun r ->
      assert (r.few_sparse_per_sec > 0. && r.full_sparse_per_sec > 0.);
      assert (r.rss_kb > 0))
    rows;
  Format.printf "@.[scale-smoke ok]@."
