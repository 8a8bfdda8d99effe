type error = { failed_trial : int; message : string }

type 'a outcome = Value of 'a | Raised of error | Timed_out of { trial : int; elapsed_s : float }

let default_jobs () =
  match Sys.getenv_opt "MIC_JOBS" with
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 1 -> min n 64
      | _ -> Domain.recommended_domain_count ())
  | None -> Domain.recommended_domain_count ()

let trial_rng ~key t = Util.Rng.of_key (key ^ ":" ^ string_of_int t)

let retry_rng ~key ~trial ~attempt =
  if attempt = 0 then trial_rng ~key trial
  else Util.Rng.of_key (key ^ ":" ^ string_of_int trial ^ ":retry" ^ string_of_int attempt)

let capture t f =
  try Value (f t)
  with e -> Raised { failed_trial = t; message = Printexc.to_string e }

(* One trial under the retry/timeout policy.  A raising attempt is
   retried (the body sees the attempt number, so it can re-derive its
   stream via [retry_rng] and stay deterministic); the last failure is
   recorded.  The timeout is cooperative — OCaml domains cannot be
   preempted — so an overlong attempt runs to completion and its result
   is then {e discarded} as [Timed_out]: the pool never hangs on the
   attempt boundary, but a wedged body wedges its domain. *)
let attempt_trial ~attempts ~timeout_s f t =
  let rec go attempt =
    let t0 = Unix.gettimeofday () in
    match f ~attempt t with
    | v -> (
        let elapsed_s = Unix.gettimeofday () -. t0 in
        match timeout_s with
        | Some lim when elapsed_s > lim -> Timed_out { trial = t; elapsed_s }
        | _ -> Value v)
    | exception e ->
        if attempt + 1 < attempts then go (attempt + 1)
        else Raised { failed_trial = t; message = Printexc.to_string e }
  in
  go 0

(* Fill slots.(t - lo) for t in [lo, hi) with body's outcomes.  Each
   domain writes only the slots of the trials it claimed from the
   counter, so the writes are race-free; Domain.join publishes them to
   the caller. *)
let run_slice ~jobs ~lo ~hi ~slots body =
  let width = hi - lo in
  (* Clamp to the hardware: spawning more domains than cores only adds
     scheduler churn (OCaml domains are not green threads), and the
     trial counter already balances any jobs ≫ domains workload. *)
  let jobs = max 1 (min (min jobs width) (Domain.recommended_domain_count ())) in
  if jobs = 1 then
    for t = lo to hi - 1 do
      slots.(t - lo) <- Some (body t)
    done
  else begin
    let next = Atomic.make lo in
    let worker () =
      let rec loop () =
        let t = Atomic.fetch_and_add next 1 in
        if t < hi then begin
          slots.(t - lo) <- Some (body t);
          loop ()
        end
      in
      loop ()
    in
    let helpers = Array.init (jobs - 1) (fun _ -> Domain.spawn worker) in
    worker ();
    Array.iter Domain.join helpers
  end

let run_outcomes ?jobs ~trials body =
  let jobs = match jobs with Some j -> max 1 j | None -> default_jobs () in
  if trials < 0 then invalid_arg "Pool.run: trials < 0";
  Logging.Log.debug (fun m -> m "run: %d trial(s) on %d job(s)" trials jobs);
  let slots = Array.make (max 1 trials) None in
  if trials > 0 then run_slice ~jobs ~lo:0 ~hi:trials ~slots body;
  Array.init trials (fun t -> match slots.(t) with Some o -> o | None -> assert false)

let run ?jobs ~trials f = run_outcomes ?jobs ~trials (fun t -> capture t f)

let run_retry ?jobs ?timeout_s ?(attempts = 1) ~trials f =
  if attempts < 1 then invalid_arg "Pool.run_retry: attempts < 1";
  run_outcomes ?jobs ~trials (attempt_trial ~attempts ~timeout_s f)

let fold_outcomes ?jobs ?batch ~trials ~init ~merge body =
  let jobs = match jobs with Some j -> max 1 j | None -> default_jobs () in
  if trials < 0 then invalid_arg "Pool.fold: trials < 0";
  let batch = match batch with Some b -> max 1 b | None -> max 64 (16 * jobs) in
  Logging.Log.debug (fun m ->
      m "fold: %d trial(s) on %d job(s), batch %d" trials jobs batch);
  let slots = Array.make (min (max 1 trials) batch) None in
  let acc = ref init in
  let lo = ref 0 in
  while !lo < trials do
    let hi = min trials (!lo + batch) in
    run_slice ~jobs ~lo:!lo ~hi ~slots body;
    for t = !lo to hi - 1 do
      (match slots.(t - !lo) with Some o -> acc := merge !acc t o | None -> assert false);
      slots.(t - !lo) <- None
    done;
    lo := hi
  done;
  !acc

let fold ?jobs ?batch ~trials ~init ~merge trial =
  fold_outcomes ?jobs ?batch ~trials ~init ~merge (fun t -> capture t trial)

let fold_retry ?jobs ?batch ?timeout_s ?(attempts = 1) ~trials ~init ~merge f =
  if attempts < 1 then invalid_arg "Pool.fold_retry: attempts < 1";
  fold_outcomes ?jobs ?batch ~trials ~init ~merge (attempt_trial ~attempts ~timeout_s f)
