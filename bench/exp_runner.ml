(* RUNNER — the Monte Carlo trial pool, measured.

   Re-runs the E2 noise sweep (Theorem 1.1's success-vs-noise shape)
   through lib/runner at jobs=1 and jobs=4 and checks the engine's two
   contracts:

   1. Determinism: every trial derives its randomness from its trial
      index alone ([Exp_common.trial_rng]), and the pool merges
      outcomes in trial order — so the timing-free Report JSON must be
      byte-identical across job counts.  Asserted here on every run.
   2. Scaling: the sweep's wall time at jobs=4 vs jobs=1, written to
      BENCH_runner.json together with the machine's core count (on a
      single-core container the honest speedup is ~1x; the determinism
      contract is what makes the numbers comparable at all).

   The smoke variant (`main.exe smoke runner`, `runner-smoke` alias
   inside `dune runtest`) does the same at toy size with jobs=1 vs
   jobs=2. *)

let algorithms =
  [
    ("alg1", fun g -> Coding.Params.algorithm_1 g);
    ("algA", fun g -> Coding.Params.algorithm_a g);
  ]

(* One (algorithm × slot-rate) cell of the sweep: [trials] independent
   runs, all randomness derived from the cell key and trial index. *)
let cell ~jobs ~trials ~pi ~g (alg_id, mk_params) rate =
  let key = Printf.sprintf "e2:%s:%.6f" alg_id rate in
  let params = mk_params g in
  let s =
    Exp_common.run_trials ~jobs ~trials (fun t ->
        Coding.Scheme.run
          ~rng:(Exp_common.trial_rng (key ^ ":scheme") t)
          params pi
          (if rate = 0. then Netsim.Adversary.Silent
           else Netsim.Adversary.iid (Exp_common.trial_rng (key ^ ":adv") t) ~rate))
  in
  (key, s)

let sweep ~jobs ~trials ~rounds ~rates =
  let g = Topology.Graph.cycle 8 in
  let pi = Exp_common.workload ~rounds g in
  Exp_common.time @@ fun () ->
  List.concat_map (fun alg -> List.map (fun rate -> cell ~jobs ~trials ~pi ~g alg rate) rates)
    algorithms

(* The timing-free JSON of a sweep: the determinism contract's subject. *)
let stable_json cells =
  Util.Json.arr
    (List.map
       (fun (key, s) ->
         Runner.Report.to_json ~timing:false (Exp_common.report ~experiment:"e2-sweep" ~key s))
       cells)

let bench ~trials ~rounds ~rates ~jobs_hi =
  let c1, wall1 = sweep ~jobs:1 ~trials ~rounds ~rates in
  let ch, wallh = sweep ~jobs:jobs_hi ~trials ~rounds ~rates in
  let j1 = stable_json c1 and jh = stable_json ch in
  if j1 <> jh then failwith "runner determinism violated: jobs=1 and parallel sweep differ";
  (c1, wall1, wallh, j1)

let json_doc ~trials ~rounds ~jobs_hi ~wall1 ~wallh sweep_json =
  let open Util.Json in
  obj
    [
      ("bench", str "runner");
      ("cores", int (Domain.recommended_domain_count ()));
      ("trials", int trials);
      ("workload_rounds", int rounds);
      ("jobs_compared", arr [ int 1; int jobs_hi ]);
      ( "wall_s",
        obj
          [
            ("jobs1", num wall1);
            (Printf.sprintf "jobs%d" jobs_hi, num wallh);
          ] );
      ("speedup", num (wall1 /. wallh));
      ("deterministic", bool true);
      ("sweep", sweep_json);
    ]

let run_with ~trials ~rounds ~rates ~jobs_hi ~json () =
  Exp_common.heading
    (Printf.sprintf "RUNNER |  trial pool scaling on the E2 sweep (jobs=1 vs jobs=%d)" jobs_hi);
  let cells, wall1, wallh, sweep_json = bench ~trials ~rounds ~rates ~jobs_hi in
  Format.printf "  %-22s %-20s %-24s@." "cell" "success [wilson95]" "blowup";
  Format.printf "  %s@." (String.make 66 '-');
  List.iter
    (fun (key, s) ->
      Format.printf "  %-22s %-20s %-24s@." key (Exp_common.success_cell s)
        (Exp_common.blowup_cell s))
    cells;
  Format.printf "@.  cores=%d  wall jobs=1: %.2fs  wall jobs=%d: %.2fs  speedup %.2fx@."
    (Domain.recommended_domain_count ())
    wall1 jobs_hi wallh (wall1 /. wallh);
  Format.printf "  deterministic: timing-free JSON byte-identical across job counts@.";
  Exp_common.write_json json (json_doc ~trials ~rounds ~jobs_hi ~wall1 ~wallh sweep_json);
  cells

let full_rates () =
  let m = float_of_int (Topology.Graph.m (Topology.Graph.cycle 8)) in
  [ 0.; 0.2 /. (m *. 100.); 1. /. (m *. 100.); 2. /. (m *. 100.) ]

let run () =
  ignore
    (run_with ~trials:8 ~rounds:300 ~rates:(full_rates ()) ~jobs_hi:4
       ~json:(Some "BENCH_runner.json") ())

(* Tiny 2-domain parallel run for `dune runtest`: asserts jobs=1 ≡
   jobs=2 output and that a raising trial is recorded, not fatal. *)
let smoke ?json () =
  let m = float_of_int (Topology.Graph.m (Topology.Graph.cycle 8)) in
  let cells = run_with ~trials:4 ~rounds:60 ~rates:[ 0.; 1. /. (m *. 100.) ] ~jobs_hi:2 ~json () in
  assert (List.length cells = 4);
  (* Exception capture: a raising trial becomes a recorded failure. *)
  let s =
    Exp_common.run_trials ~jobs:2 ~trials:4 (fun t ->
        if t = 2 then failwith "boom"
        else
          Coding.Scheme.run
            ~rng:(Exp_common.trial_rng "smoke:ok" t)
            (Coding.Params.algorithm_1 (Topology.Graph.cycle 8))
            (Exp_common.workload ~rounds:40 (Topology.Graph.cycle 8))
            Netsim.Adversary.Silent)
  in
  assert (s.Exp_common.errors = 1);
  assert (s.Exp_common.successes = 3);
  (* That raise was the test, not a lost trial: keep it out of the exit
     status. *)
  Exp_common.total_errors := !Exp_common.total_errors - s.Exp_common.errors;
  Format.printf "@.[runner-smoke ok]@."
