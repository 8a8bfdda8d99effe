(* The timed trial loop and the end-to-end metrics it yields.

   Discipline: a full major collection runs before every timed trial,
   outside its timed window, so no trial pays for its predecessor's
   garbage; trials run one at a time on the calling domain.

   Host normalisation: on a shared host the speed of allocation-heavy
   code drifts by tens of percent over minutes.  Every timed trial is
   preceded by one run of {!Reference_loop}, and the end-to-end times
   are the measured walls scaled by [reference_nominal_s / reference
   loop time] — seconds at a fixed reference host speed.  The raw walls
   are reported beside them. *)

let now = Unix.gettimeofday

(* The reference loop's time on the host the bounds were set on (a
   2-vCPU Xeon VM). *)
let reference_nominal_s = 0.035

(* The reference loop's time now, from a clean heap. *)
let reference_loop () =
  Gc.full_major ();
  let t0 = now () in
  Reference_loop.run ();
  now () -. t0

let normalise ~reference wall = wall *. reference_nominal_s /. reference

let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

type sample = {
  trial : Workload.trial;
  result : Coding.Scheme.result option;
  ok : bool;
  wall : float;
  reference : float;  (** reference loop time just before the trial *)
  cpu : float;  (** process CPU time: every domain of the process *)
  minor_words : float;
  promoted_words : float;
  minor_collections : int;
  major_collections : int;
}

let timed ?sink env trial =
  let reference = reference_loop () in
  Gc.full_major ();
  let g0 = Gc.quick_stat () in
  let c0 = cpu_s () in
  let w0 = now () in
  let result = Workload.run ?sink env trial in
  let w1 = now () in
  let c1 = cpu_s () in
  let g1 = Gc.quick_stat () in
  (* Native code books words at minor collections: empty the minor heap
     so the word counts are exact (collections are read before it). *)
  Gc.minor ();
  let words = Gc.quick_stat () in
  {
    trial;
    result;
    ok = Workload.correct trial result;
    wall = w1 -. w0;
    reference;
    cpu = c1 -. c0;
    minor_words = words.Gc.minor_words -. g0.Gc.minor_words;
    promoted_words = words.Gc.promoted_words -. g0.Gc.promoted_words;
    minor_collections = g1.Gc.minor_collections - g0.Gc.minor_collections;
    major_collections = g1.Gc.major_collections - g0.Gc.major_collections;
  }

(* Cycle through the first [keys] trials of the fixed set (all by
   default): always one whole pass, then more trials until [seconds] have
   elapsed.  The first pass covers each key exactly once, which is what
   makes the rate figures exact per seed.  [after] runs outside the timed
   window once each trial is done (the traced sweep folds and resets its
   sink there). *)
let sweep ?sink ?(after = ignore) ?keys env ~seconds =
  let set = env.Workload.set in
  let n = Option.value keys ~default:(Array.length set) in
  let t0 = now () in
  let rec go i acc =
    if i >= n && now () -. t0 >= seconds then List.rev acc
    else begin
      let s = timed ?sink env set.(i mod n) in
      after s;
      go (i + 1) (s :: acc)
    end
  in
  go 0 []

(* A sweep visits keys 0, 1, ... in order, so sample i is on its first
   pass exactly when it ran key i. *)
let first_pass samples = List.filteri (fun i s -> s.trial.Workload.index = i) samples

(* The middle value, or the mean of the two middle values: with the
   handful of repeats a key gets, nearest-rank would pick the minimum. *)
let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.
let mean xs = Util.Stats.mean xs
let sum xs = List.fold_left ( +. ) 0. xs
let walls samples = List.map (fun s -> s.wall) samples
let normalised s = normalise ~reference:s.reference s.wall
let failed samples = List.length (List.filter (fun s -> not s.ok) samples)

let results samples = List.filter_map (fun s -> s.result) samples

(* Median over keys of each key's median of [wall]: keys that a fast run
   repeated weigh no more than the rest, so the trial mix is the same in
   every run of a seed. *)
let trial_wall ?(wall = normalised) samples =
  let by_key = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let k = s.trial.Workload.index in
      Hashtbl.replace by_key k (wall s :: Option.value (Hashtbl.find_opt by_key k) ~default:[]))
    samples;
  median (Hashtbl.fold (fun _ walls acc -> median walls :: acc) by_key [])

(* Simulated rounds over the summed wall of the same trials: one ratio
   of two totals, never a difference of timings. *)
let rounds_per_s ?(wall = normalised) samples =
  let rounds =
    List.fold_left
      (fun acc s -> match s.result with Some r -> acc + r.Coding.Scheme.rounds | None -> acc)
      0 samples
  in
  float_of_int rounds /. sum (List.map wall samples)

(* Mean CC/CC(Π) over the first pass: each key once, so the value is a
   pure function of the workload and its seed. *)
let rate_blowup samples =
  mean (List.map (fun r -> r.Coding.Scheme.rate_blowup) (results (first_pass samples)))

let success_rate samples =
  let n = List.length samples in
  float_of_int (n - failed samples) /. float_of_int n

let peak_rss_mb () = float_of_int (Util.Mem.peak_rss_kb ()) /. 1024.

(* A fingerprint of what the first pass computed — outputs, cc and rounds
   per key — so two workloads of one family can be compared across
   processes. *)
let digest samples =
  first_pass samples
  |> List.map (fun s ->
         match s.result with
         | Some r -> (s.trial.Workload.index, r.Coding.Scheme.outputs, r.Coding.Scheme.cc,
                      r.Coding.Scheme.rounds)
         | None -> (s.trial.Workload.index, [||], -1, -1))
  |> fun l -> Digest.to_hex (Digest.string (Marshal.to_string l []))
