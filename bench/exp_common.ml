(* Shared plumbing for the experiment harness: the Monte Carlo trial
   runner (now on lib/runner's multicore pool) and table printing.
   Every experiment prints a self-contained table whose rows mirror what
   the paper reports (see DESIGN.md §3 and EXPERIMENTS.md).

   Determinism contract: a trial body must depend only on its trial
   index — derive every per-trial stream with [trial_rng] — so that the
   merged summary is bit-identical for any [-j N] / MIC_JOBS setting. *)

type summary = {
  trials : int;
  successes : int;
  errors : int;  (* trials that raised; recorded by the pool, never fatal *)
  jobs : int;
  wall : float;  (* seconds for all trials *)
  blowup : Runner.Accum.summary;  (* rate blowup CC/CC(Π) *)
  fraction : Runner.Accum.summary;  (* measured corruption fraction *)
  iters : Runner.Accum.summary;  (* iterations run *)
}

(* The job count every run_trials/grid call uses, set once by main.ml
   from -j N / MIC_JOBS.  Experiments never read it directly. *)
let jobs = ref (Runner.Pool.default_jobs ())

(* Trials that raised or timed out anywhere in this process, so main.ml
   can exit non-zero when any cell silently lost trials.  A captured
   error is never fatal to the sweep, but it must not be invisible in
   the exit status either. *)
let total_errors = ref 0
let exit_code () = if !total_errors > 0 then 1 else 0

let success_pct s = 100. *. float_of_int s.successes /. float_of_int (max 1 s.trials)

let wilson s = Util.Stats.wilson_interval ~successes:s.successes ~trials:s.trials

(* "92.0% [85.1,95.9]" — the Wilson 95% interval next to every success
   rate, so a tables reader can tell 8/8 from 800/800.  Cells with
   captured trial errors carry an explicit "E:n" marker: a success rate
   computed over fewer trials than requested must say so. *)
let success_cell s =
  let lo, hi = wilson s in
  let errs = if s.errors > 0 then Format.asprintf " E:%d" s.errors else "" in
  Format.asprintf "%.0f%% [%.0f,%.0f]%s" (success_pct s) (100. *. lo) (100. *. hi) errs

let mean_blowup s = s.blowup.Runner.Accum.mean
let mean_fraction s = s.fraction.Runner.Accum.mean
let mean_iters s = s.iters.Runner.Accum.mean

(* "17.7x sd 0.4 p95 18.2" — mean with tail columns; the paper's Θ(·)
   bounds are about worst cases, so the tables show tails, not just
   means. *)
let blowup_cell s =
  Format.asprintf "%.1fx sd %.1f p95 %.1f" (mean_blowup s) s.blowup.Runner.Accum.stddev
    s.blowup.Runner.Accum.p95

let iters_cell s =
  Format.asprintf "%.1f sd %.1f p95 %.1f" (mean_iters s) s.iters.Runner.Accum.stddev
    s.iters.Runner.Accum.p95

let trial_rng key t = Runner.Pool.trial_rng ~key t

(* Run [trials] independent executions on the worker pool; the callback
   gets the trial index and must build fresh adversary/rng state from it
   ([trial_rng]).  [run_trials_aux] additionally returns each trial's
   auxiliary value in trial order (None where the trial raised), for
   experiments that count attack hits, rework, etc. — accumulating into
   a closed-over ref would race across domains. *)
let run_trials_aux ?jobs:j ~trials (f : int -> Coding.Scheme.result * 'aux) :
    summary * 'aux option list =
  let jobs = match j with Some j -> j | None -> !jobs in
  let t0 = Unix.gettimeofday () in
  let blowup = Runner.Accum.create () in
  let fraction = Runner.Accum.create () in
  let iters = Runner.Accum.create () in
  let successes, errors, aux_rev =
    Runner.Pool.fold ~jobs ~trials ~init:(0, 0, [])
      ~merge:(fun (succ, errs, aux) t outcome ->
        match outcome with
        | Runner.Pool.Value (r, a) ->
            Runner.Accum.add blowup r.Coding.Scheme.rate_blowup;
            Runner.Accum.add fraction r.Coding.Scheme.noise_fraction;
            Runner.Accum.add iters (float_of_int r.Coding.Scheme.iterations_run);
            ((if r.Coding.Scheme.success then succ + 1 else succ), errs, Some a :: aux)
        | Runner.Pool.Raised e ->
            Format.eprintf "[trial %d raised: %s]@." t e.Runner.Pool.message;
            (succ, errs + 1, None :: aux)
        | Runner.Pool.Timed_out { trial; elapsed_s } ->
            Format.eprintf "[trial %d timed out after %.1fs]@." trial elapsed_s;
            (succ, errs + 1, None :: aux))
      f
  in
  total_errors := !total_errors + errors;
  ( {
      trials;
      successes;
      errors;
      jobs;
      wall = Unix.gettimeofday () -. t0;
      blowup = Runner.Accum.summary blowup;
      fraction = Runner.Accum.summary fraction;
      iters = Runner.Accum.summary iters;
    },
    List.rev aux_rev )

let run_trials ?jobs ~trials (f : int -> Coding.Scheme.result) =
  fst (run_trials_aux ?jobs ~trials (fun t -> (f t, ())))

(* Independent grid cells (one scenario each, not repeated trials) run
   through the same pool: [grid cells f] evaluates [f] on every cell in
   parallel and returns the results in cell order.  A raising cell is
   re-raised — grids are experiment code, not noisy trials. *)
let grid (cells : 'a list) (f : 'a -> 'b) : 'b list =
  let arr = Array.of_list cells in
  Runner.Pool.run ~jobs:!jobs ~trials:(Array.length arr) (fun i -> f arr.(i))
  |> Array.to_list
  |> List.map (function
       | Runner.Pool.Value v -> v
       | Runner.Pool.Raised e -> failwith e.Runner.Pool.message
       | Runner.Pool.Timed_out { trial; elapsed_s } ->
           failwith (Format.asprintf "grid cell %d timed out after %.1fs" trial elapsed_s))

(* The Report record for a summary, for experiments that emit JSON. *)
let report ~experiment ~key s =
  {
    Runner.Report.experiment;
    key;
    trials = s.trials;
    successes = s.successes;
    errors = s.errors;
    jobs = s.jobs;
    wall_s = s.wall;
    metrics =
      [ ("rate_blowup", s.blowup); ("noise_fraction", s.fraction); ("iterations", s.iters) ];
  }

(* Per-experiment footer: run the driver and close with its id and wall
   time, so a multi-experiment log attributes every table to the
   experiment that printed it without scrollback archaeology. *)
let timed id f =
  let t0 = Unix.gettimeofday () in
  f ();
  Format.printf "@.[%s done in %.1f s]@." id (Unix.gettimeofday () -. t0)

let heading title =
  Format.printf "@.==============================================================================@.";
  Format.printf "%s@." title;
  Format.printf "==============================================================================@."

let subheading s = Format.printf "@.--- %s ---@." s

(* Standard workload used across experiments unless stated otherwise: a
   sparse pseudorandom protocol whose outputs are avalanche digests, so
   that any uncorrected corruption is visible. *)
let workload ?(rounds = 300) ?(density = 0.5) ?(seed = 3) graph =
  Protocol.Protocols.random_chatter graph ~rounds ~density ~seed

let bar ?(width = 30) fraction =
  let n = int_of_float (fraction *. float_of_int width) in
  String.init width (fun i -> if i < n then '#' else '.')

(* The raw transport loop of the transport, scale and trace benches:
   [rounds] rounds of begin a round, [send] the traffic shape of round
   [r], commit, and iterate the deliveries the way the phase drivers
   read them.  Returns the wall time of the loop. *)
let raw_rounds net ~rounds ~send =
  let act = Netsim.Network.active net in
  let t0 = Unix.gettimeofday () in
  for r = 0 to rounds - 1 do
    Netsim.Network.Active.begin_round act;
    send act r;
    Netsim.Network.commit net act;
    let seen = ref 0 in
    Netsim.Network.Active.iter act (fun ~dir:_ _ -> incr seen);
    ignore !seen
  done;
  Unix.gettimeofday () -. t0

(* Full-duplex traffic: every directed link speaks every round, each
   edge's endpoints alternating bits with the round parity. *)
let full_duplex g =
  let edges = Topology.Graph.edges g in
  fun act r ->
    for e = 0 to Array.length edges - 1 do
      let u, v = edges.(e) in
      Netsim.Network.Active.send act ~dir:(2 * e) ((r + u) land 1 = 0);
      Netsim.Network.Active.send act ~dir:((2 * e) + 1) ((r + v) land 1 = 0)
    done
