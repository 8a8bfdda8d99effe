type t = {
  version : int;
  name : string;
  algorithm : string;
  topology : string;
  rounds : int;
  key : string;
  trials : int;
  expected : string option;
  candidate : Coding.Attacks.candidate;
}

let version = 1

(* ---------- environment ---------- *)

let graph_of_topology spec =
  let fail () = invalid_arg (Printf.sprintf "Scenario: bad topology spec %S" spec) in
  let int s = match int_of_string_opt s with Some n when n > 0 -> n | _ -> fail () in
  match String.split_on_char ':' spec with
  | [ "clique"; n ] -> Topology.Graph.clique (int n)
  | [ "line"; n ] -> Topology.Graph.line (int n)
  | [ "cycle"; n ] -> Topology.Graph.cycle (int n)
  | [ "star"; n ] -> Topology.Graph.star (int n)
  | [ "tree"; n ] -> Topology.Graph.binary_tree (int n)
  | [ "grid"; r; c ] -> Topology.Graph.grid ~rows:(int r) ~cols:(int c)
  | _ -> fail ()

let params_of_algorithm a graph =
  match a with
  | "1" -> Coding.Params.algorithm_1 graph
  | "a" -> Coding.Params.algorithm_a graph
  | "b" -> Coding.Params.algorithm_b graph
  | "c" -> Coding.Params.algorithm_c graph
  | s -> invalid_arg (Printf.sprintf "Scenario: unknown algorithm %S (expected 1|a|b|c)" s)

let workload ~rounds graph =
  Protocol.Protocols.random_chatter graph ~rounds ~density:0.5 ~seed:3

(* ---------- serialization ---------- *)

let candidate_json (c : Coding.Attacks.candidate) =
  let open Util.Json in
  obj
    [
      ("family", str (Coding.Attacks.family_to_string c.family));
      ( "partner",
        match c.partner with
        | None -> "null"
        | Some p -> str (Coding.Attacks.family_to_string p) );
      ("edges", arr (List.map int c.edges));
      ("window", match c.window with None -> "null" | Some (lo, hi) -> arr [ int lo; int hi ]);
      ("burst_start", int c.burst_start);
      ("burst_len", int c.burst_len);
      ("rate_denom", int c.rate_denom);
      ("depth", int c.depth);
    ]

let candidate_to_json = candidate_json

let to_json sc =
  let open Util.Json in
  obj
    [
      ("version", int sc.version);
      ("name", str sc.name);
      ("algorithm", str sc.algorithm);
      ("topology", str sc.topology);
      ("rounds", int sc.rounds);
      ("key", str sc.key);
      ("trials", int sc.trials);
      ("expected", match sc.expected with None -> "null" | Some e -> str e);
      ("candidate", candidate_json sc.candidate);
    ]

(* Total parsing: every shape error is an [Error] naming the field, so a
   hand-edited scenario file fails loudly instead of half-applying. *)
let ( let* ) r f = Result.bind r f

let field name conv j =
  match Util.Json.member name j with
  | None -> Error (Printf.sprintf "missing field %S" name)
  | Some v -> (
      match conv v with
      | Some x -> Ok x
      | None -> Error (Printf.sprintf "field %S has the wrong shape" name))

let jint j = Option.map int_of_float (Util.Json.to_float j)

let opt_field name conv j =
  match Util.Json.member name j with
  | None | Some Util.Json.Null -> Ok None
  | Some v -> (
      match conv v with
      | Some x -> Ok (Some x)
      | None -> Error (Printf.sprintf "field %S has the wrong shape" name))

let candidate_of_json j =
  let* family_s = field "family" Util.Json.to_string j in
  let* family =
    match Coding.Attacks.family_of_string family_s with
    | Some f -> Ok f
    | None -> Error (Printf.sprintf "unknown attack family %S" family_s)
  in
  let* partner_s = opt_field "partner" Util.Json.to_string j in
  let* partner =
    match partner_s with
    | None -> Ok None
    | Some s -> (
        match Coding.Attacks.family_of_string s with
        | Some f -> Ok (Some f)
        | None -> Error (Printf.sprintf "unknown partner family %S" s))
  in
  let* edges =
    match Util.Json.member "edges" j with
    | None -> Error "missing field \"edges\""
    | Some v ->
        List.fold_right
          (fun e acc ->
            let* acc = acc in
            match jint e with
            | Some n -> Ok (n :: acc)
            | None -> Error "field \"edges\" must hold integers")
          (Util.Json.to_list v) (Ok [])
  in
  let* window =
    match Util.Json.member "window" j with
    | None | Some Util.Json.Null -> Ok None
    | Some v -> (
        match List.filter_map jint (Util.Json.to_list v) with
        | [ lo; hi ] -> Ok (Some (lo, hi))
        | _ -> Error "field \"window\" must be [lo, hi]")
  in
  let* burst_start = field "burst_start" jint j in
  let* burst_len = field "burst_len" jint j in
  let* rate_denom = field "rate_denom" jint j in
  let* depth = field "depth" jint j in
  Ok
    {
      Coding.Attacks.family;
      partner;
      edges;
      window;
      burst_start;
      burst_len;
      rate_denom;
      depth;
    }

let of_json j =
  let* v = field "version" jint j in
  if v <> version then Error (Printf.sprintf "unsupported scenario version %d (want %d)" v version)
  else
    let* name = field "name" Util.Json.to_string j in
    let* algorithm = field "algorithm" Util.Json.to_string j in
    let* topology = field "topology" Util.Json.to_string j in
    let* rounds = field "rounds" jint j in
    let* key = field "key" Util.Json.to_string j in
    let* trials = field "trials" jint j in
    let* expected = opt_field "expected" Util.Json.to_string j in
    let* cand_j =
      match Util.Json.member "candidate" j with
      | Some c -> Ok c
      | None -> Error "missing field \"candidate\""
    in
    let* candidate = candidate_of_json cand_j in
    if rounds <= 0 then Error "rounds must be positive"
    else if trials <= 0 then Error "trials must be positive"
    else Ok { version = v; name; algorithm; topology; rounds; key; trials; expected; candidate }

let parse s =
  match Util.Json.parse_opt s with
  | None -> Error "not valid JSON"
  | Some j -> of_json j

let save ~path sc = Runner.Report.write_file ~path (to_json sc)

let load ~path =
  match In_channel.with_open_bin path In_channel.input_all with
  | s -> parse s
  | exception Sys_error e -> Error e

(* ---------- replay ---------- *)

type trial_replay = {
  trial : int;
  outcome_class : string;
  success : bool;
  cc : int;
  corruptions : int;
  noise_fraction : float;
  hunter_hits : int;
}

let run_trial ?(sink = Trace.Sink.disabled) sc trial =
  let graph = graph_of_topology sc.topology in
  let params = params_of_algorithm sc.algorithm graph in
  let pi = workload ~rounds:sc.rounds graph in
  (* Fresh instance (and stats record) inside the trial: the multicore
     contract of Attacks.instantiate. *)
  let inst = Coding.Attacks.instantiate ~graph sc.candidate in
  let config = Coding.Scheme.Config.make ~sink ?spy_hook:inst.Coding.Attacks.spy_hook () in
  let outcome =
    Coding.Scheme.run_outcome ~config
      ~rng:(Runner.Pool.trial_rng ~key:sc.key trial)
      params pi inst.Coding.Attacks.adversary
  in
  let success, cc, corruptions, noise_fraction =
    match Faults.Outcome.result outcome with
    | None -> (false, 0, 0, 0.)
    | Some r ->
        ( r.Coding.Scheme.success,
          r.Coding.Scheme.cc,
          r.Coding.Scheme.corruptions,
          r.Coding.Scheme.noise_fraction )
  in
  {
    trial;
    outcome_class = Fitness.outcome_class outcome;
    success;
    cc;
    corruptions;
    noise_fraction;
    hunter_hits = inst.Coding.Attacks.stats.Coding.Attacks.hits;
  }

let replay ?(jobs = 1) sc =
  Runner.Pool.fold ~jobs ~trials:sc.trials ~init:[]
    ~merge:(fun acc trial outcome ->
      match outcome with
      | Runner.Pool.Value r -> r :: acc
      | Runner.Pool.Raised e ->
          (* Scheme.run_outcome never raises after validation, so this is
             a scenario-level error (bad candidate vs topology); surface
             it as a distinguishable class. *)
          {
            trial;
            outcome_class = "error:" ^ e.Runner.Pool.message;
            success = false;
            cc = 0;
            corruptions = 0;
            noise_fraction = 0.;
            hunter_hits = 0;
          }
          :: acc)
    (fun trial -> run_trial sc trial)
  |> List.rev

let classes rs = String.concat "," (List.map (fun r -> r.outcome_class) rs)

let pin_expected sc = { sc with expected = Some (classes (replay ~jobs:1 sc)) }

let check ?(jobs = 1) sc =
  let rs = replay ~jobs sc in
  match sc.expected with
  | None -> Ok rs
  | Some e ->
      let got = classes rs in
      if got = e then Ok rs
      else
        Error
          (Printf.sprintf "scenario %s: expected outcome classes [%s], replay produced [%s]"
             sc.name e got)
