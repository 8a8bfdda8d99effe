type point = { rate : float; successes : int; trials : int; mean_fraction : float }

(* Trial [t] at [rate]: its adversary and scheme streams depend only on
   (rng_seed, t), so every rate sees the same samples. *)
let run_one ~rng_seed ~rate params pi t =
  let adversary =
    if rate <= 0. then Netsim.Adversary.Silent
    else Netsim.Adversary.iid (Util.Rng.create (rng_seed + (17 * t) + 1)) ~rate
  in
  match Scheme.run_outcome ~rng:(Util.Rng.create (rng_seed + t)) params pi adversary with
  | Faults.Outcome.Completed r | Faults.Outcome.Degraded (r, _) -> r
  | Faults.Outcome.Aborted (reason, _) ->
      failwith ("Calibrate: a scheme run aborted: " ^ Faults.Outcome.abort_to_string reason)

let sweep ?(trials = 8) ~rng_seed ~rates params pi =
  List.map
    (fun rate ->
      let successes = ref 0 and fractions = ref 0. in
      for t = 0 to trials - 1 do
        let r = run_one ~rng_seed ~rate params pi t in
        if r.Scheme.success then incr successes;
        fractions := !fractions +. r.Scheme.noise_fraction
      done;
      { rate; successes = !successes; trials; mean_fraction = !fractions /. float_of_int trials })
    rates

let threshold ?(trials = 5) ?(steps = 7) ?(hi = 0.05) ~rng_seed params pi =
  let all_pass rate =
    let rec from t =
      t >= trials || ((run_one ~rng_seed ~rate params pi t).Scheme.success && from (t + 1))
    in
    from 0
  in
  if not (all_pass 0.) then 0.
  else begin
    let lo = ref 0. and hi = ref hi in
    for _ = 1 to steps do
      let mid = (!lo +. !hi) /. 2. in
      if all_pass mid then lo := mid else hi := mid
    done;
    !lo
  end
