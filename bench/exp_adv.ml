(* ADV — adversary synthesis: search the attack parameter space for
   empirical worst cases (BENCH_adv.json).

   For each (algorithm × topology) cell the derandomized engine in
   lib/advsearch explores the attack candidate space — family, composed
   partner, target links, iteration window, burst shape, budget
   (rate_denom), hunter depth — scoring candidates by a fitness projected
   from each run's outcome (failures, Φ stall count, Φ-rise deficit,
   rework per corruption; Φ from the result's per-iteration trace, no
   sink).  Hand-written baselines (each pure family at the default
   budget) are scored by the same evaluator on the same trial keys, so
   "the search beat the baselines" is an apples-to-apples dominance
   statement on the (budget, failure probability) plane: at least as
   damaging on at least as small a budget, strictly better on one axis.

   The empirical frontier contextualizes the paper's noise bounds: the
   adversary's budget fraction is 1/rate_denom of the communication,
   to be read against Θ(1/m) (Theorem 1.1, oblivious) and
   Θ(1/(m log m)) (Theorem 1.2, non-oblivious) per cell.

   Determinism: every proposal and trial derives from the cell key, so
   the whole sweep — every evaluation, the frontier, the winner — is
   byte-identical across job counts.  Asserted on every run (jobs=1 vs
   jobs=hi).  The smoke variant (`main.exe smoke adv`, `adv-smoke` alias
   inside `dune runtest`) runs one cell at jobs=1 vs jobs=4. *)

type cell = {
  key : string;
  m : int;
  baselines : Advsearch.Search.eval list;
  search : Advsearch.Search.t;
  beats : Advsearch.Search.eval option;
      (* best-scoring discovered eval dominating every baseline *)
  search_wall : float;
}

let algorithms = [ "1"; "a"; "b" ]
let topologies = [ "clique:5"; "line:16"; "grid:3:3" ]
let baseline_rate_denom = 600

(* The hand-written opponents: each pure attack family, whole graph, no
   window, default shape, at the common budget level. *)
let baseline_candidates =
  List.map
    (fun f ->
      {
        Coding.Attacks.default_candidate with
        Coding.Attacks.family = f;
        rate_denom = baseline_rate_denom;
        burst_len = 200;
      })
    Coding.Attacks.all_families

(* [e] beats [b]: higher failure probability at an equal-or-smaller
   budget, or equal failure probability at a strictly smaller budget
   (rate_denom is the inverse budget). *)
let beats_baseline e b =
  let open Advsearch.Search in
  let rd (x : eval) = x.candidate.Coding.Attacks.rate_denom in
  (rd e >= rd b && failure_prob e > failure_prob b)
  || (rd e > rd b && failure_prob e >= failure_prob b)

let find_beats (search : Advsearch.Search.t) baselines =
  let open Advsearch.Search in
  let winners =
    List.filter (fun e -> List.for_all (beats_baseline e) baselines) search.evals
  in
  List.fold_left
    (fun acc e -> match acc with Some a when a.score >= e.score -> acc | _ -> Some e)
    None winners

let cell ~jobs ~generations ~population ~trials ~rounds (alg, topo) =
  let key = Printf.sprintf "adv:%s:%s" alg topo in
  let env = Advsearch.Search.env ~algorithm:alg ~topology:topo ~rounds in
  let m = Topology.Graph.m (Advsearch.Scenario.graph_of_topology topo) in
  let baselines =
    List.mapi
      (fun i c ->
        Advsearch.Search.evaluate ~jobs ~trials
          ~key:
            (Printf.sprintf "advbase:%s:%s" key
               (Coding.Attacks.family_to_string c.Coding.Attacks.family))
          ~generation:(-1) ~index:i env c)
      baseline_candidates
  in
  let cfg =
    {
      (Advsearch.Search.default_config ~key:("advsearch:" ^ key)) with
      Advsearch.Search.generations;
      population;
      trials;
      jobs;
    }
  in
  let search, search_wall = Exp_common.time (fun () -> Advsearch.Search.run cfg env) in
  { key; m; baselines; search; beats = find_beats search baselines; search_wall }

(* The timing-free JSON of a cell — the determinism subject.  [full]
   additionally includes every evaluation (compared across job counts
   but kept out of the written snapshot, which carries the distilled
   frontier). *)
let stable_cell_json ~full (c : cell) =
  let open Util.Json in
  let open Advsearch.Search in
  obj
    ([
       ("key", str c.key);
       ("m", int c.m);
       ("bound_oblivious", num (1. /. float_of_int c.m));
       ( "bound_nonoblivious",
         num (1. /. float_of_int (c.m * Coding.Params.ceil_log2 c.m)) );
       ("baselines", arr (List.map eval_to_json c.baselines));
       ("best", eval_to_json c.search.best);
       ("frontier", arr (List.map eval_to_json c.search.frontier));
       ( "family_scores",
         obj (List.map (fun (n, v) -> (n, num v)) c.search.family_scores) );
       ("beats_all_baselines", bool (c.beats <> None));
       ( "beats_label",
         str
           (match c.beats with
           | None -> ""
           | Some e -> Coding.Attacks.candidate_to_string e.candidate) );
     ]
    @ if full then [ ("evals", arr (List.map eval_to_json c.search.evals)) ] else [])

let stable_json ~full cells =
  Util.Json.arr (List.map (stable_cell_json ~full) cells)

let sweep ~jobs ~generations ~population ~trials ~rounds cells =
  Exp_common.time (fun () -> List.map (cell ~jobs ~generations ~population ~trials ~rounds) cells)

let run_with ~cells ~generations ~population ~trials ~rounds ~jobs_hi ~json () =
  Exp_common.heading
    (Printf.sprintf
       "ADV   |  attack-space search: %d cell(s), %d gen x %d pop x %d trials (jobs=1 vs \
        jobs=%d)"
       (List.length cells) generations population trials jobs_hi);
  let c1, wall1 = sweep ~jobs:1 ~generations ~population ~trials ~rounds cells in
  let ch, wallh = sweep ~jobs:jobs_hi ~generations ~population ~trials ~rounds cells in
  if stable_json ~full:true c1 <> stable_json ~full:true ch then
    failwith "adv determinism violated: jobs=1 and parallel search differ";
  let open Advsearch.Search in
  Format.printf "  %-16s %-34s %-7s %-7s %-9s %-5s@." "cell" "best attack" "score"
    "fail_p" "base max" "beats";
  Format.printf "  %s@." (String.make 86 '-');
  List.iter
    (fun (c : cell) ->
      let base_max =
        List.fold_left (fun acc b -> Float.max acc (failure_prob b)) 0. c.baselines
      in
      let label = Coding.Attacks.candidate_to_string c.search.best.candidate in
      let label =
        if String.length label > 34 then String.sub label 0 31 ^ "..." else label
      in
      Format.printf "  %-16s %-34s %-7.0f %-7.2f %-9.2f %-5s@." c.key label
        c.search.best.score
        (failure_prob c.search.best)
        base_max
        (if c.beats <> None then "yes" else "no"))
    c1;
  Format.printf
    "@.  wall jobs=1: %.2fs  wall jobs=%d: %.2fs  deterministic: timing-free JSON \
     byte-identical@."
    wall1 jobs_hi wallh;
  (let open Util.Json in
   (* Per-cell wall from the parallel pass; classified timed. *)
   let walls =
     arr
       (List.map
          (fun (c : cell) -> obj [ ("key", str c.key); ("search_wall_s", num c.search_wall) ])
          ch)
   in
   Exp_common.write_json json
     (obj
        [
          ("bench", str "adv");
          ("generations", int generations);
          ("population", int population);
          ("trials", int trials);
          ("workload_rounds", int rounds);
          ("jobs_compared", arr [ int 1; int jobs_hi ]);
          ("deterministic", bool true);
          ("sweep", stable_json ~full:false c1);
          ("search_walls", walls);
        ]));
  c1

let all_cells = List.concat_map (fun a -> List.map (fun t -> (a, t)) topologies) algorithms

let run () =
  ignore
    (run_with ~cells:all_cells ~generations:2 ~population:5 ~trials:2 ~rounds:60 ~jobs_hi:4
       ~json:(Some "BENCH_adv.json") ())

(* One-cell sweep for `dune runtest`: asserts jobs=1 ≡ jobs=4, the
   search budget was spent, and the frontier is Pareto. *)
let smoke ?json () =
  let cells =
    run_with
      ~cells:[ ("1", "clique:5") ]
      ~generations:2 ~population:4 ~trials:2 ~rounds:40 ~jobs_hi:4 ~json ()
  in
  let open Advsearch.Search in
  List.iter
    (fun (c : cell) ->
      assert (List.length c.search.evals = 2 * 4);
      assert (c.search.frontier <> []);
      (* Pareto: no frontier point is dominated on (budget, damage). *)
      List.iter
        (fun f ->
          assert (
            not
              (List.exists
                 (fun e ->
                   let rd (x : eval) = x.candidate.Coding.Attacks.rate_denom in
                   failure_prob e >= failure_prob f
                   && rd e >= rd f
                   && (failure_prob e > failure_prob f || rd e > rd f))
                 c.search.evals)))
        c.search.frontier;
      (* The bandit state covers every family, in declaration order. *)
      assert (
        List.map fst c.search.family_scores
        = List.map Coding.Attacks.family_to_string Coding.Attacks.all_families))
    cells;
  Format.printf "@.[adv-smoke ok]@."
