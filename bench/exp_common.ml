(* Shared plumbing for the experiment harness: the one clock and timing
   primitive, the Monte Carlo trial runner (on lib/runner's multicore
   pool), the timed workloads several benches share, and table printing.
   Every experiment prints a self-contained table whose rows mirror what
   the paper reports (see DESIGN.md §3 and EXPERIMENTS.md).

   Determinism contract: a trial body must depend only on its trial
   index — derive every per-trial stream with [trial_rng] — so that the
   merged summary is bit-identical for any [-j N] / MIC_JOBS setting. *)

(* ---------- timing ---------- *)

(* The harness's one clock: [f ()]'s result and its wall seconds. *)
let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* One timed run: wall seconds and the minor-heap words the calling
   domain allocated. *)
type sample = { wall_s : float; minor_words : float }

(* Time [f ()] after a full major collection, so garbage left by an
   earlier run is not collected on this one's clock. *)
let measure f =
  Gc.full_major ();
  let w0 = Gc.minor_words () in
  let r, wall_s = time f in
  (r, { wall_s; minor_words = Gc.minor_words () -. w0 })

let faster a b = if b.wall_s < a.wall_s then b else a

(* Best of [reps] runs.  Each run of [f] does its own setup and returns
   the sample of its timed part ([measure]), so setup stays off the
   clock.  The minimum is the estimate least contaminated by scheduling
   noise. *)
let best_of ~reps f =
  let best = ref (f ()) in
  for _ = 2 to reps do
    best := faster !best (f ())
  done;
  !best

type pair = { off : sample; on : sample }

(* Interleaved best-of-[reps] pairs: even reps run [off] then [on], odd
   reps [on] then [off], so machine drift and run order hit both sides
   alike; each side keeps its fastest run. *)
let best_pair ~reps ~off ~on =
  let pair i =
    if i land 1 = 0 then
      let a = off () in
      { off = a; on = on () }
    else
      let b = on () in
      { off = off (); on = b }
  in
  let best = ref (pair 0) in
  for i = 1 to reps - 1 do
    let p = pair i in
    best := { off = faster !best.off p.off; on = faster !best.on p.on }
  done;
  !best

(* What the on side costs over the off side, in percent of the off wall
   time (negative = noise). *)
let overhead_pct p = 100. *. ((p.on.wall_s /. p.off.wall_s) -. 1.)

(* Rounds per second of [rounds] rounds timed by [s]. *)
let per_sec ~rounds s = float_of_int rounds /. s.wall_s

(* ---------- trials ---------- *)

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
  let blowup = Runner.Accum.create () in
  let fraction = Runner.Accum.create () in
  let iters = Runner.Accum.create () in
  let (successes, errors, aux_rev), wall =
    time @@ fun () ->
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
            (succ, errs + 1, None :: aux))
      f
  in
  total_errors := !total_errors + errors;
  ( {
      trials;
      successes;
      errors;
      jobs;
      wall;
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
       | Runner.Pool.Raised e -> failwith e.Runner.Pool.message)

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

(* Write a bench's JSON snapshot when the run was given a path. *)
let write_json path doc =
  Option.iter
    (fun path ->
      Runner.Report.write_file ~path doc;
      Format.printf "@.[wrote %s]@." path)
    path

(* A summary as the {n, mean, min, max} object the JSON snapshots use. *)
let accum_json (a : Runner.Accum.summary) =
  Util.Json.(
    obj
      [
        ("n", int a.Runner.Accum.n);
        ("mean", num a.Runner.Accum.mean);
        ("min", num a.Runner.Accum.min);
        ("max", num a.Runner.Accum.max);
      ])

(* Per-experiment footer: run the driver and close with its id and wall
   time, so a multi-experiment log attributes every table to the
   experiment that printed it without scrollback archaeology. *)
let timed id f =
  let (), wall = time f in
  Format.printf "@.[%s done in %.1f s]@." id wall

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

(* One attack family, built as every attack is: a candidate with no
   partner and no window, on [edges] ([[]] = every edge), depth-[depth]
   hunter search, budget 1/[rate_denom] of the traffic. *)
let attack ~graph ?(edges = []) ?(depth = 4) ~rate_denom family =
  Coding.Attacks.instantiate ~graph
    { Coding.Attacks.default_candidate with family; edges; depth; rate_denom }

let bar ?(width = 30) fraction =
  let n = int_of_float (fraction *. float_of_int width) in
  String.init width (fun i -> if i < n then '#' else '.')

(* ---------- shared timed workloads ---------- *)

(* Deliveries read by [raw_rounds].  The counter lives at top level so
   the reader passed to [Active.iter] captures nothing and allocates
   nothing: the loop's minor words are [commit]'s own. *)
let delivered = ref 0
let count_delivery ~dir:_ _ = incr delivered

(* The raw transport timer of the transport, scale and trace benches:
   [rounds] rounds of begin a round, [send] the traffic shape of round
   [r], commit, and iterate the deliveries the way the phase drivers
   read them.  Only the loop is on the clock. *)
let raw_rounds net ~rounds ~send =
  let act = Netsim.Network.active net in
  snd
    (measure (fun () ->
         for r = 0 to rounds - 1 do
           Netsim.Network.Active.begin_round act;
           send act r;
           Netsim.Network.commit net act;
           Netsim.Network.Active.iter act count_delivery
         done))

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

(* The round floor of the live bench: every party sends one bit toward
   its first neighbour each round, committed to a silent network, and
   the read drains the deliveries — maximal round pressure, minimal
   work.  Set-up stays off the clock; returns the round loop's sample
   and the symbols the network booked as stalled (none without
   jitter). *)
let engine_floor g ~rounds =
  let n = Topology.Graph.n g in
  let net = Netsim.Network.create g Netsim.Adversary.Silent in
  let buf = Netsim.Network.active net in
  let out_dir =
    Array.init n (fun v ->
        let nb = Topology.Graph.neighbors g v in
        if Array.length nb = 0 then -1 else Topology.Graph.dir_id g ~src:v ~dst:nb.(0))
  in
  let (), s =
    measure (fun () ->
        for r = 0 to rounds - 1 do
          Netsim.Network.Active.begin_round buf;
          for v = 0 to n - 1 do
            if out_dir.(v) >= 0 then Netsim.Network.Active.send buf ~dir:out_dir.(v) (r land 1 = 0)
          done;
          Netsim.Network.commit net buf;
          let seen = ref 0 in
          Netsim.Network.Active.iter buf (fun ~dir:_ _ -> incr seen);
          ignore !seen
        done)
  in
  (s, (Netsim.Network.stats net).Netsim.Network.stalled)

(* The timed Scheme.run of the transport and trace benches: Algorithm 1
   on [pi] under 0.05% iid noise with fixed seeds, on [backend] and
   observed by [sink] when given. *)
let scheme_run ?backend ?sink g pi =
  let params = Coding.Params.algorithm_1 g in
  let adv = Netsim.Adversary.iid (Util.Rng.create 11) ~rate:0.0005 in
  let config = Coding.Scheme.Config.make ?backend ?sink () in
  measure (fun () -> Coding.Scheme.run ~config ~rng:(Util.Rng.create 7) params pi adv)
