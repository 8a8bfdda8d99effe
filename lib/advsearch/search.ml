type config = {
  key : string;
  generations : int;
  population : int;
  trials : int;
  jobs : int;
  elite : int;
  rate_denoms : int array;
  epsilon_pct : int;
}

let default_config ~key =
  {
    key;
    generations = 3;
    population = 6;
    trials = 3;
    jobs = 1;
    elite = 2;
    rate_denoms = [| 150; 300; 600; 1200; 2400 |];
    epsilon_pct = 30;
  }

type eval = {
  candidate : Coding.Attacks.candidate;
  key : string;
  generation : int;
  index : int;
  trials : int;
  failures : int;
  errors : int;
  score : float;
  mean_noise : float;
  mean_stalls : float;
  mean_waste : float;
  hunter_hits : int;
  classes : string;
}

let failure_prob (e : eval) = float_of_int e.failures /. float_of_int (max 1 e.trials)

type t = {
  algorithm : string;
  topology : string;
  rounds : int;
  evals : eval list;
  best : eval;
  frontier : eval list;
  family_scores : (string * float) list;
}

(* ---------- environment ---------- *)

type env = {
  algorithm : string;
  topology : string;
  rounds : int;
  graph : Topology.Graph.t;
  params : Coding.Params.t;
  pi : Protocol.Pi.t;
  iterations : int;  (* a-priori iteration count, bounds window sampling *)
  net_rounds : int;  (* a-priori round count, bounds burst sampling *)
}

let env ~algorithm ~topology ~rounds =
  let graph = Scenario.graph_of_topology topology in
  let params = Scenario.params_of_algorithm algorithm graph in
  let pi = Scenario.workload ~rounds graph in
  {
    algorithm;
    topology;
    rounds;
    graph;
    params;
    pi;
    iterations = Coding.Scheme.planned_iterations params pi;
    net_rounds = Coding.Scheme.planned_rounds params pi;
  }

(* ---------- one run, one candidate, one trial ---------- *)

(* Scenario.run_trial's execution with the per-iteration trace kept
   (same trial-rng derivation; keeping the trace does not change a run),
   so a scenario whose [key] is an eval's candidate key replays the
   search's runs byte-for-byte.  The fitness is projected from the
   outcome. *)
let run_candidate env cand ~key trial =
  let inst = Coding.Attacks.instantiate ~graph:env.graph cand in
  let config = Coding.Scheme.Config.make ~trace:true ?spy_hook:inst.Coding.Attacks.spy_hook () in
  let outcome =
    Coding.Scheme.run_outcome ~config
      ~rng:(Runner.Pool.trial_rng ~key trial)
      env.params env.pi inst.Coding.Attacks.adversary
  in
  Fitness.extract ~k:env.params.Coding.Params.k ~m:(Topology.Graph.m env.graph)
    ~stats:inst.Coding.Attacks.stats ~outcome

(* ---------- batch evaluation: one pool fold per generation ---------- *)

let evaluate_batch ~jobs ~trials ~generation ~keys env cands =
  let ncand = Array.length cands in
  let failures = Array.make ncand 0 in
  let errors = Array.make ncand 0 in
  let score_sum = Array.make ncand 0. in
  let noise = Array.init ncand (fun _ -> Runner.Accum.create ()) in
  let stalls = Array.init ncand (fun _ -> Runner.Accum.create ()) in
  let waste = Array.init ncand (fun _ -> Runner.Accum.create ()) in
  let hits = Array.make ncand 0 in
  let classes = Array.make ncand [] in
  Runner.Pool.fold ~jobs ~trials:(ncand * trials) ~init:()
    ~merge:(fun () i outcome ->
      let ci = i / trials in
      match outcome with
      | Runner.Pool.Value fit ->
          if fit.Fitness.failed then failures.(ci) <- failures.(ci) + 1;
          score_sum.(ci) <- score_sum.(ci) +. Fitness.score fit;
          Runner.Accum.add noise.(ci) fit.Fitness.noise_fraction;
          Runner.Accum.add stalls.(ci) (float_of_int fit.Fitness.phi_stalls);
          Runner.Accum.add waste.(ci) fit.Fitness.waste;
          hits.(ci) <- hits.(ci) + fit.Fitness.hunter_hits;
          classes.(ci) <- fit.Fitness.outcome_class :: classes.(ci)
      | Runner.Pool.Raised _ ->
          errors.(ci) <- errors.(ci) + 1;
          classes.(ci) <- "error" :: classes.(ci))
    (fun i -> run_candidate env cands.(i / trials) ~key:keys.(i / trials) (i mod trials));
  List.init ncand (fun ci ->
      let mean a = (Runner.Accum.summary a).Runner.Accum.mean in
      {
        candidate = cands.(ci);
        key = keys.(ci);
        generation;
        index = ci;
        trials;
        failures = failures.(ci);
        errors = errors.(ci);
        score = score_sum.(ci) /. float_of_int trials;
        mean_noise = mean noise.(ci);
        mean_stalls = mean stalls.(ci);
        mean_waste = mean waste.(ci);
        hunter_hits = hits.(ci);
        classes = String.concat "," (List.rev classes.(ci));
      })

let evaluate ?(jobs = 1) ~trials ~key ~generation ~index env cand =
  match evaluate_batch ~jobs ~trials ~generation ~keys:[| key |] env [| cand |] with
  | [ e ] -> { e with index }
  | _ -> assert false

(* ---------- the candidate space: keyed sampling and mutation ---------- *)

let families = Array.of_list Coding.Attacks.all_families

let sample_edges rng m =
  let count = 1 + Util.Rng.int rng (min 3 m) in
  let rec draw acc n =
    if n = 0 then acc
    else
      let e = Util.Rng.int rng m in
      if List.mem e acc then draw acc n else draw (e :: acc) (n - 1)
  in
  List.sort compare (draw [] count)

let sample_window env rng =
  if Util.Rng.bool rng then None
  else
    let lo = Util.Rng.int rng (max 1 (env.iterations / 2)) in
    let len = 1 + Util.Rng.int rng (max 1 env.iterations) in
    Some (lo, lo + len)

let random_family rng = families.(Util.Rng.int rng (Array.length families))

let sample ~denoms env rng family =
  let m = Topology.Graph.m env.graph in
  {
    Coding.Attacks.family;
    partner = (if Util.Rng.int rng 100 < 35 then Some (random_family rng) else None);
    edges = (if Util.Rng.bool rng then [] else sample_edges rng m);
    window = sample_window env rng;
    burst_start = Util.Rng.int rng (max 1 env.net_rounds);
    burst_len = 10 + Util.Rng.int rng 90;
    rate_denom = denoms.(Util.Rng.int rng (Array.length denoms));
    depth = 2 + Util.Rng.int rng 4;
  }

(* Index of the budget level nearest to [d] — mutations slide along the
   configured ladder even if the elite came from outside it. *)
let denom_index denoms d =
  let best = ref 0 in
  Array.iteri (fun i x -> if abs (x - d) < abs (denoms.(!best) - d) then best := i) denoms;
  !best

let mutate ~denoms env rng (c : Coding.Attacks.candidate) =
  let m = Topology.Graph.m env.graph in
  match Util.Rng.int rng 7 with
  | 0 ->
      let i = denom_index denoms c.rate_denom in
      let i =
        if Util.Rng.bool rng then min (Array.length denoms - 1) (i + 1) else max 0 (i - 1)
      in
      { c with rate_denom = denoms.(i) }
  | 1 ->
      let d = if Util.Rng.bool rng then c.depth + 1 else c.depth - 1 in
      { c with depth = max 1 (min 8 d) }
  | 2 ->
      let partner =
        match c.partner with
        | Some _ when Util.Rng.bool rng -> None
        | _ -> Some (random_family rng)
      in
      { c with partner }
  | 3 -> { c with edges = (if Util.Rng.bool rng then [] else sample_edges rng m) }
  | 4 -> { c with window = sample_window env rng }
  | 5 ->
      {
        c with
        burst_start = Util.Rng.int rng (max 1 env.net_rounds);
        burst_len = 10 + Util.Rng.int rng 90;
      }
  | _ -> { c with family = random_family rng }

(* ---------- bandit state ---------- *)

(* Mean score per family, iterated in [all_families] order (never
   Hashtbl order) so the result list — and every decision derived from
   it — is deterministic. *)
let family_mean_scores evals =
  List.map
    (fun f ->
      let scores =
        List.filter_map
          (fun e -> if e.candidate.Coding.Attacks.family = f then Some e.score else None)
          evals
      in
      let mean =
        match scores with
        | [] -> 0.
        | l -> List.fold_left ( +. ) 0. l /. float_of_int (List.length l)
      in
      (Coding.Attacks.family_to_string f, mean))
    Coding.Attacks.all_families

let best_family evals =
  let means = family_mean_scores evals in
  let best =
    List.fold_left
      (fun acc (name, mean) ->
        match acc with Some (_, m) when m >= mean -> acc | _ -> Some (name, mean))
      None means
  in
  match best with
  | Some (name, _) -> (
      match Coding.Attacks.family_of_string name with Some f -> f | None -> assert false)
  | None -> List.hd Coding.Attacks.all_families

(* ---------- proposals ---------- *)

let rank evals =
  List.sort
    (fun a b ->
      match compare b.score a.score with
      | 0 -> compare (a.generation, a.index) (b.generation, b.index)
      | c -> c)
    evals

let propose cfg env ~gen ~evals ~seen =
  let denoms = cfg.rate_denoms in
  let ranked = rank evals in
  let nfam = Array.length families in
  List.init cfg.population (fun slot ->
      let rng = Util.Rng.of_key (Printf.sprintf "%s:propose:%d:%d" cfg.key gen slot) in
      let base =
        if gen = 0 then
          (* pull every bandit arm once, then keyed random samples *)
          let f = if slot < nfam then families.(slot) else random_family rng in
          sample ~denoms env rng f
        else if slot < cfg.elite && slot < List.length ranked then
          mutate ~denoms env rng (List.nth ranked slot).candidate
        else
          let f =
            if Util.Rng.int rng 100 < cfg.epsilon_pct then random_family rng
            else best_family evals
          in
          sample ~denoms env rng f
      in
      let rec fresh attempt c =
        if attempt >= 8 || not (Hashtbl.mem seen (Coding.Attacks.candidate_to_string c)) then c
        else fresh (attempt + 1) (mutate ~denoms env rng c)
      in
      let c = fresh 0 base in
      Hashtbl.replace seen (Coding.Attacks.candidate_to_string c) ();
      c)

(* ---------- frontier ---------- *)

(* [a] dominates [b] when it is at least as damaging on at least as
   small a budget (rate_denom is the inverse budget: bigger = cheaper),
   and strictly better on one axis. *)
let dominates a b =
  let fa = failure_prob a and fb = failure_prob b in
  let da = a.candidate.Coding.Attacks.rate_denom
  and db = b.candidate.Coding.Attacks.rate_denom in
  fa >= fb && da >= db && (fa > fb || da > db)

let frontier evals =
  let keep e = not (List.exists (fun o -> dominates o e) evals) in
  let nd = List.filter keep evals in
  (* one representative per (budget, failure) point: the earliest eval *)
  let seen = Hashtbl.create 8 in
  let nd =
    List.filter
      (fun e ->
        let k = (e.candidate.Coding.Attacks.rate_denom, e.failures, e.trials) in
        if Hashtbl.mem seen k then false
        else (
          Hashtbl.replace seen k ();
          true))
      nd
  in
  List.sort
    (fun a b ->
      match
        compare a.candidate.Coding.Attacks.rate_denom b.candidate.Coding.Attacks.rate_denom
      with
      | 0 -> compare (failure_prob a) (failure_prob b)
      | c -> c)
    nd

(* ---------- the search ---------- *)

let run cfg env =
  if cfg.generations < 1 || cfg.population < 1 || cfg.trials < 1 then
    invalid_arg "Search.run: generations, population and trials must be positive";
  if Array.length cfg.rate_denoms = 0 then invalid_arg "Search.run: rate_denoms is empty";
  let seen = Hashtbl.create 64 in
  let evals = ref [] (* reverse (gen, index) order *) in
  for gen = 0 to cfg.generations - 1 do
    let proposals = propose cfg env ~gen ~evals:(List.rev !evals) ~seen in
    let keys =
      Array.of_list
        (List.mapi (fun i _ -> Printf.sprintf "%s:%d:%d" cfg.key gen i) proposals)
    in
    let es =
      evaluate_batch ~jobs:cfg.jobs ~trials:cfg.trials ~generation:gen ~keys env
        (Array.of_list proposals)
    in
    evals := List.rev_append es !evals
  done;
  let evals = List.rev !evals in
  let best = match rank evals with e :: _ -> e | [] -> assert false in
  {
    algorithm = env.algorithm;
    topology = env.topology;
    rounds = env.rounds;
    evals;
    best;
    frontier = frontier evals;
    family_scores = family_mean_scores evals;
  }

(* ---------- packaging ---------- *)

let scenario_of_eval ~name ?trials ?expected env e =
  {
    Scenario.version = Scenario.version;
    name;
    algorithm = env.algorithm;
    topology = env.topology;
    rounds = env.rounds;
    key = e.key;
    trials = Option.value trials ~default:e.trials;
    expected;
    candidate = e.candidate;
  }

(* ---------- stable JSON ---------- *)

let eval_to_json (e : eval) =
  let open Util.Json in
  obj
    [
      ("label", str (Coding.Attacks.candidate_to_string e.candidate));
      ("candidate", Scenario.candidate_to_json e.candidate);
      ("key", str e.key);
      ("generation", int e.generation);
      ("index", int e.index);
      ("trials", int e.trials);
      ("failures", int e.failures);
      ("errors", int e.errors);
      ("failure_prob", num (failure_prob e));
      ("score", num e.score);
      ("mean_noise", num e.mean_noise);
      ("mean_stalls", num e.mean_stalls);
      ("mean_waste", num e.mean_waste);
      ("hunter_hits", int e.hunter_hits);
      ("classes", str e.classes);
    ]

let to_json (t : t) =
  let open Util.Json in
  obj
    [
      ("algorithm", str t.algorithm);
      ("topology", str t.topology);
      ("rounds", int t.rounds);
      ("evals", arr (List.map eval_to_json t.evals));
      ("best", eval_to_json t.best);
      ("frontier", arr (List.map eval_to_json t.frontier));
      ( "family_scores",
        obj (List.map (fun (name, mean) -> (name, num mean)) t.family_scores) );
    ]
