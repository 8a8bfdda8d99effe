type t = {
  outcome_class : string;
  failed : bool;
  phi_stalls : int;
  phi_deficit : float;
  waste : float;
  noise_fraction : float;
  corruptions : int;
  cc : int;
  hunter_hits : int;
  hunter_attempts : int;
}

let outcome_class outcome =
  let label = Faults.Outcome.label outcome in
  match Faults.Outcome.result outcome with
  | None -> label
  | Some r -> label ^ if r.Coding.Scheme.success then ":ok" else ":fail"

(* Σ max(0, K − ΔΦ) over the per-iteration increments, in units of K. *)
let deficit ~k increments =
  let kf = float_of_int k in
  List.fold_left (fun acc delta -> acc +. Float.max 0. (kf -. delta)) 0. increments /. kf

let extract ~k ~m ~stats ~outcome =
  let result = Faults.Outcome.result outcome in
  let failed =
    match result with None -> true | Some r -> not r.Coding.Scheme.success
  in
  let corruptions, cc, noise_fraction, waste, trace =
    match result with
    | None -> (0, 0, 0., 0., [])
    | Some r ->
        ( r.Coding.Scheme.corruptions,
          r.Coding.Scheme.cc,
          r.Coding.Scheme.noise_fraction,
          float_of_int r.Coding.Scheme.chunks_rewound
          /. float_of_int (max 1 r.Coding.Scheme.corruptions),
          r.Coding.Scheme.trace )
  in
  {
    outcome_class = outcome_class outcome;
    failed;
    phi_stalls = Coding.Potential.stalls ~k ~m trace;
    phi_deficit = deficit ~k (Coding.Potential.increments ~k ~m trace);
    waste;
    noise_fraction;
    corruptions;
    cc;
    hunter_hits = stats.Coding.Attacks.hits;
    hunter_attempts = stats.Coding.Attacks.attempts;
  }

let score f =
  (if f.failed then 1000. else 0.)
  +. (2. *. float_of_int f.phi_stalls)
  +. f.phi_deficit
  +. Float.min f.waste 100.
  (* efficiency bonus: at equal damage prefer the attack that spent a
     smaller fraction of the traffic (noise_fraction ∈ [0, ~0.1]) *)
  -. (100. *. f.noise_fraction)
