(** Derandomized attack-space search.

    A generational engine over {!Coding.Attacks.candidate} space:
    generation 0 seeds one candidate per attack family (so every bandit
    arm is pulled) plus keyed random samples; later generations mutate
    the elite (local search) and draw the remaining proposals by an
    ε-greedy bandit over family mean scores.  Every candidate is
    evaluated over [trials] independent runs fanned out on
    {!Runner.Pool} — a whole generation's (candidate × trial) matrix is
    one pool fold — and scored with {!Fitness}, which projects the
    signals from each run's outcome: a run keeps its per-iteration trace
    ([~trace:true]) and needs no sink.

    {e Determinism contract}: every random decision is keyed.  Proposal
    randomness is [Rng.of_key (key ^ ":propose:" ^ gen ^ ":" ^ slot)];
    trial randomness is [key:generation:candidate:trial] (via
    {!Runner.Pool.trial_rng} on the candidate key
    [key ^ ":" ^ gen ^ ":" ^ index]).  Results merge in (candidate,
    trial) order, so the same [key] yields the same evaluations, best
    candidate and frontier at any job count — and a discovered
    candidate's evaluation replays byte-identically as a
    {!Scenario}. *)

type config = {
  key : string;  (** master derivation key *)
  generations : int;
  population : int;  (** candidates per generation *)
  trials : int;  (** runs per candidate *)
  jobs : int;  (** pool width for the (candidate × trial) fan-out *)
  elite : int;  (** top candidates mutated into the next generation *)
  rate_denoms : int array;  (** budget levels the space ranges over *)
  epsilon_pct : int;  (** bandit exploration rate, percent *)
}

val default_config : key:string -> config
(** 3 generations × population 6 × 3 trials, jobs 1, elite 2,
    budgets {150, 300, 600, 1200, 2400}, ε = 30%. *)

type eval = {
  candidate : Coding.Attacks.candidate;
  key : string;  (** the candidate evaluation key ([cfg.key:gen:index]) *)
  generation : int;
  index : int;
  trials : int;
  failures : int;  (** trials whose simulation failed *)
  errors : int;  (** trials the pool captured as raised/timed out *)
  score : float;  (** mean {!Fitness.score} over the trials *)
  mean_noise : float;
  mean_stalls : float;
  mean_waste : float;
  hunter_hits : int;
  classes : string;  (** comma-joined per-trial outcome classes *)
}

val failure_prob : eval -> float

type t = {
  algorithm : string;
  topology : string;
  rounds : int;
  evals : eval list;  (** every evaluated candidate, in (gen, index) order *)
  best : eval;  (** highest score; ties break to the earliest *)
  frontier : eval list;
      (** Pareto frontier of (budget, failure probability): no other
          eval has ≥ failure probability at ≥ rate_denom (one strict);
          sorted by rate_denom then failure probability *)
  family_scores : (string * float) list;
      (** mean score per family over all evals (the bandit state),
          in {!Coding.Attacks.all_families} order; unseen families 0 *)
}

(** {2 Evaluation} *)

type env

val env : algorithm:string -> topology:string -> rounds:int -> env
(** Build (graph, params, workload) once; see {!Scenario} for the spec
    grammar. *)

val evaluate :
  ?jobs:int -> trials:int -> key:string -> generation:int -> index:int ->
  env -> Coding.Attacks.candidate -> eval
(** Score one candidate — the same procedure the engine applies to its
    proposals, exposed so benches can score hand-written baselines on
    equal footing. *)

val run : config -> env -> t
(** The full search.  Raises [Invalid_argument] on a non-positive
    budget (generations, population or trials < 1). *)

val scenario_of_eval :
  name:string -> ?trials:int -> ?expected:string -> env -> eval -> Scenario.t
(** Package a discovered attack for replay.  The scenario [key] is the
    eval's candidate key, so its trials reproduce the search's own runs
    byte-identically.  [trials] defaults to the eval's trial count;
    [expected] is left unpinned unless given (see
    {!Scenario.pin_expected}). *)

(** {2 Stable JSON} *)

val eval_to_json : eval -> string
(** Timing-free JSON of one evaluation (the determinism subject of the
    [adv] bench). *)

val to_json : t -> string
(** Timing-free JSON of a whole search result: evals, best, frontier,
    family scores. *)
