(* FAULTS — graceful degradation under out-of-model faults.

   The paper's guarantees are conditional on its model: ε/m noise, live
   parties, intact state.  This experiment measures what each scheme
   does when the model is violated — party crash-stop, noise overload at
   budget × k, and a "chaos" row combining crash-recovery, a link stall
   window, transcript rot and seed rot — and checks the fault engine's
   two contracts:

   1. Totality: every trial ends in Completed/Degraded/Aborted with a
      diagnosis; a raising trial would be a bug in the engine, is
      recorded by the pool, and turns the exit status non-zero.
   2. Determinism: every fault decision derives from the plan key and
      the trial index, so the timing-free JSON must be byte-identical
      across job counts.  Asserted on every run (jobs=1 vs jobs=hi).

   Writes BENCH_faults.json.  The smoke variant (`main.exe smoke faults`,
   `faults-smoke` alias inside `dune runtest`) runs a tiny sweep at
   jobs=1 vs jobs=4. *)

type cell = {
  key : string;
  trials : int;
  completed : int;
  degraded : int;
  aborted : int;
  successes : int;
  blowup : Runner.Accum.summary;
  crashed_iters : int;
  rejoins : int;
  stalled : int;
  injected : int;
  state_rot : int; (* transcript-rot + seed-rot events *)
}

let scheme_variants =
  [
    ("alg1", fun g -> Coding.Params.algorithm_1 g);
    ("algA", fun g -> Coding.Params.algorithm_a g);
  ]

(* Base iid slot rate: the adversary's own (in-budget) noise, and the
   unit the overload factor multiplies. *)
let base_rate g = 1. /. (100. *. float_of_int (Topology.Graph.m g))

(* The per-trial fault plan of a cell: crash-stop the first [crashes]
   parties early, overload every round by [overload] × base rate, and —
   on the chaos row — add crash-recovery, a stall window and state rot.
   Keyed by (cell, trial), so the schedule replays at any job count. *)
let plan_for ~g ~crashes ~overload ~chaos ~key t =
  let rate = base_rate g in
  let specs = ref [] in
  for i = 0 to crashes - 1 do
    specs := Faults.Plan.Crash { party = i; at_iteration = 2 + i; recover_at = None } :: !specs
  done;
  if overload > 0. then
    specs :=
      Faults.Plan.Noise_overload { factor = overload; from_round = 0; rounds = 1_000_000_000; rate }
      :: !specs;
  if chaos then
    specs :=
      Faults.Plan.Crash { party = 0; at_iteration = 2; recover_at = Some 6 }
      :: Faults.Plan.Link_stall { edge = 0; from_round = 50; rounds = 200 }
      :: Faults.Plan.Transcript_rot { party = 1; at_iteration = 4 }
      :: Faults.Plan.Seed_rot { party = 2; from_iteration = 3 }
      :: !specs;
  Faults.Plan.make ~key:(key ^ ":" ^ string_of_int t) !specs

let cell ~jobs ~trials ~pi ~g (alg_id, mk_params) ~crashes ~overload ~chaos =
  let key =
    if chaos then Printf.sprintf "faults:%s:chaos" alg_id
    else Printf.sprintf "faults:%s:c%d:o%g" alg_id crashes overload
  in
  let params = mk_params g in
  let rate = base_rate g in
  let blowup = Runner.Accum.create () in
  let completed, degraded, aborted, successes, ci, rj, st, inj, rot =
    Runner.Pool.fold ~jobs ~trials ~init:(0, 0, 0, 0, 0, 0, 0, 0, 0)
      ~merge:(fun (c, d, a, s, ci, rj, st, inj, rot) t outcome ->
        match outcome with
        | Runner.Pool.Value o ->
            let s =
              match Faults.Outcome.result o with
              | Some r ->
                  Runner.Accum.add blowup r.Coding.Scheme.rate_blowup;
                  if r.Coding.Scheme.success then s + 1 else s
              | None -> s
            in
            let ci, rj, st, inj, rot =
              match Faults.Outcome.diagnosis o with
              | None -> (ci, rj, st, inj, rot)
              | Some dg ->
                  Faults.Outcome.
                    ( ci + dg.crashed_iterations,
                      rj + dg.rejoins,
                      st + dg.stalled_slots,
                      inj + dg.injected,
                      rot + dg.transcript_rot + dg.seed_rot )
            in
            let c, d, a =
              match o with
              | Faults.Outcome.Completed _ -> (c + 1, d, a)
              | Faults.Outcome.Degraded _ -> (c, d + 1, a)
              | Faults.Outcome.Aborted _ -> (c, d, a + 1)
            in
            (c, d, a, s, ci, rj, st, inj, rot)
        | Runner.Pool.Raised e ->
            (* The engine's never-raise contract was violated — record
               loudly and poison the exit status. *)
            Format.eprintf "[faults trial %d raised: %s]@." t e.Runner.Pool.message;
            incr Exp_common.total_errors;
            (c, d, a + 1, s, ci, rj, st, inj, rot))
      (fun t ->
        let config =
          Coding.Scheme.Config.make ~faults:(plan_for ~g ~crashes ~overload ~chaos ~key t) ()
        in
        Coding.Scheme.run_outcome ~config
          ~rng:(Exp_common.trial_rng (key ^ ":scheme") t)
          params pi
          (Netsim.Adversary.iid (Exp_common.trial_rng (key ^ ":adv") t) ~rate))
  in
  {
    key;
    trials;
    completed;
    degraded;
    aborted;
    successes;
    blowup = Runner.Accum.summary blowup;
    crashed_iters = ci;
    rejoins = rj;
    stalled = st;
    injected = inj;
    state_rot = rot;
  }

let sweep ~jobs ~trials ~rounds ~crashes ~overloads =
  let g = Topology.Graph.cycle 6 in
  let pi = Exp_common.workload ~rounds g in
  Exp_common.time @@ fun () ->
  List.concat_map
    (fun alg ->
      List.concat_map
        (fun c ->
          List.map
            (fun o -> cell ~jobs ~trials ~pi ~g alg ~crashes:c ~overload:o ~chaos:false)
            overloads)
        crashes
      @ [ cell ~jobs ~trials ~pi ~g alg ~crashes:0 ~overload:0. ~chaos:true ])
    scheme_variants

(* The timing-free JSON of a sweep: the determinism contract's subject. *)
let stable_json cells =
  let open Util.Json in
  arr
    (List.map
       (fun c ->
         obj
           [
             ("key", str c.key);
             ("trials", int c.trials);
             ("completed", int c.completed);
             ("degraded", int c.degraded);
             ("aborted", int c.aborted);
             ("successes", int c.successes);
             ("blowup_mean", num c.blowup.Runner.Accum.mean);
             ("blowup_p95", num c.blowup.Runner.Accum.p95);
             ("crashed_iterations", int c.crashed_iters);
             ("rejoins", int c.rejoins);
             ("stalled", int c.stalled);
             ("injected", int c.injected);
             ("state_rot", int c.state_rot);
           ])
       cells)

let bench ~trials ~rounds ~crashes ~overloads ~jobs_hi =
  let c1, wall1 = sweep ~jobs:1 ~trials ~rounds ~crashes ~overloads in
  let ch, wallh = sweep ~jobs:jobs_hi ~trials ~rounds ~crashes ~overloads in
  let j1 = stable_json c1 and jh = stable_json ch in
  if j1 <> jh then failwith "faults determinism violated: jobs=1 and parallel sweep differ";
  (c1, wall1, wallh, j1)

let outcome_cell c = Printf.sprintf "%d/%d/%d" c.completed c.degraded c.aborted

let run_with ~trials ~rounds ~crashes ~overloads ~jobs_hi ~json () =
  Exp_common.heading
    (Printf.sprintf "FAULTS |  degradation under crashes and overload (jobs=1 vs jobs=%d)" jobs_hi);
  let cells, wall1, wallh, sweep_json = bench ~trials ~rounds ~crashes ~overloads ~jobs_hi in
  Format.printf "  %-22s %-9s %-9s %-16s %-26s@." "cell" "C/D/A" "success" "blowup mean/p95"
    "faults (crash/stall/inj/rot)";
  Format.printf "  %s@." (String.make 86 '-');
  List.iter
    (fun c ->
      Format.printf "  %-22s %-9s %-9s %-16s %-26s@." c.key (outcome_cell c)
        (Printf.sprintf "%d/%d" c.successes c.trials)
        (Printf.sprintf "%.1fx / %.1fx" c.blowup.Runner.Accum.mean c.blowup.Runner.Accum.p95)
        (Printf.sprintf "%d/%d/%d/%d" c.crashed_iters c.stalled c.injected c.state_rot))
    cells;
  Format.printf
    "@.  wall jobs=1: %.2fs  wall jobs=%d: %.2fs  deterministic: timing-free JSON byte-identical@."
    wall1 jobs_hi wallh;
  (let open Util.Json in
   Exp_common.write_json json
     (obj
        [
          ("bench", str "faults");
          ("trials", int trials);
          ("workload_rounds", int rounds);
          ("jobs_compared", arr [ int 1; int jobs_hi ]);
          ("deterministic", bool true);
          ("sweep", sweep_json);
        ]));
  cells

let run () =
  ignore
    (run_with ~trials:6 ~rounds:120 ~crashes:[ 0; 1; 2 ] ~overloads:[ 0.; 4.; 16. ] ~jobs_hi:4
       ~json:(Some "BENCH_faults.json") ())

(* Tiny sweep for `dune runtest`: asserts jobs=1 ≡ jobs=4 JSON and that
   crash cells degrade rather than raise. *)
let smoke ?json () =
  let cells =
    run_with ~trials:2 ~rounds:40 ~crashes:[ 0; 1 ] ~overloads:[ 0.; 4. ] ~jobs_hi:4 ~json ()
  in
  (* 2 schemes × (2 crash counts × 2 overloads + chaos row). *)
  assert (List.length cells = 10);
  List.iter
    (fun c ->
      (* Totality: every trial landed in one of the three outcomes. *)
      assert (c.completed + c.degraded + c.aborted = c.trials);
      (* Crash and chaos cells must be degraded (faults fired), never lost. *)
      if c.crashed_iters > 0 then assert (c.degraded > 0))
    cells;
  Format.printf "@.[faults-smoke ok]@."
