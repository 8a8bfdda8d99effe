type point = { rate : float; successes : int; trials : int; mean_fraction : float }

type verdict = {
  threshold : float;
  scheme_runs : int;
  retried : int;
  aborted : int;
  exhausted : bool;
}

(* Attempt [attempt] of cell (rate, t): the streams are re-keyed by the
   attempt (attempt 0 is the cell's own sample), so a retry is a fresh
   deterministic sample, not a replay of the flaky one. *)
let run_one_r ~rng_seed ~rate ~attempt ~wall params pi t =
  let salt = attempt * 7919 in
  let adversary =
    if rate <= 0. then Netsim.Adversary.Silent
    else Netsim.Adversary.iid (Util.Rng.create (rng_seed + (17 * t) + 1 + salt)) ~rate
  in
  let config = Scheme.Config.make ?max_wall_s:wall () in
  Scheme.run_outcome ~config ~rng:(Util.Rng.create (rng_seed + t + salt)) params pi adversary

let sweep ?(trials = 8) ~rng_seed ~rates params pi =
  List.map
    (fun rate ->
      let successes = ref 0 and fractions = ref 0. in
      for t = 0 to trials - 1 do
        let r =
          match run_one_r ~rng_seed ~rate ~attempt:0 ~wall:None params pi t with
          | Faults.Outcome.Completed r | Faults.Outcome.Degraded (r, _) -> r
          | Faults.Outcome.Aborted (reason, _) ->
              failwith ("Calibrate.sweep: " ^ Faults.Outcome.abort_to_string reason)
        in
        if r.Scheme.success then incr successes;
        fractions := !fractions +. r.Scheme.noise_fraction
      done;
      { rate; successes = !successes; trials; mean_fraction = !fractions /. float_of_int trials })
    rates

(* ---------- bisection ---------- *)

let threshold_r ?(trials = 5) ?(steps = 7) ?(hi = 0.05) ?(retries = 2) ?wall_s
    ?(max_runs = max_int) ~rng_seed params pi =
  let runs = ref 0 and retried = ref 0 and aborted = ref 0 and exhausted = ref false in
  (* One cell under the retry policy: an aborted run is retried with a
     doubled wall budget (backoff) up to [retries] extra attempts, then
     scored as a failure — the conservative direction for a threshold.
     [None] means the total run budget is exhausted. *)
  let succeed ~rate t =
    let rec go attempt wall =
      if !runs >= max_runs then begin
        exhausted := true;
        None
      end
      else begin
        incr runs;
        match run_one_r ~rng_seed ~rate ~attempt ~wall params pi t with
        | Faults.Outcome.Completed r | Faults.Outcome.Degraded (r, _) -> Some r.Scheme.success
        | Faults.Outcome.Aborted _ ->
            if attempt < retries then begin
              incr retried;
              go (attempt + 1) (Option.map (fun w -> 2. *. w) wall)
            end
            else begin
              incr aborted;
              Some false
            end
      end
    in
    go 0 wall_s
  in
  let all_pass rate =
    let ok = ref true in
    let t = ref 0 in
    while !ok && !t < trials && not !exhausted do
      (match succeed ~rate !t with None -> ok := false | Some s -> if not s then ok := false);
      incr t
    done;
    !ok
  in
  let threshold =
    if not (all_pass 0.) then 0.
    else begin
      let lo = ref 0. and hi = ref hi in
      let step = ref 0 in
      while !step < steps && not !exhausted do
        let mid = (!lo +. !hi) /. 2. in
        if all_pass mid then lo := mid else hi := mid;
        incr step
      done;
      !lo
    end
  in
  { threshold; scheme_runs = !runs; retried = !retried; aborted = !aborted; exhausted = !exhausted }

(* The plain bisection is the robust one with no retries and no caps: with
   no watchdog a run aborts only on an internal error, which raises. *)
let threshold ?trials ?steps ?hi ~rng_seed params pi =
  let v = threshold_r ?trials ?steps ?hi ~retries:0 ~rng_seed params pi in
  if v.aborted > 0 then failwith "Calibrate.threshold: a scheme run aborted";
  v.threshold
