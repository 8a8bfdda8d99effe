(* mic — command-line driver for ad-hoc noisy-network simulations.

   Examples:
     mic run --topology cycle --parties 8 --scheme a --adversary iid --rate 0.001
     mic run --topology line --parties 6 --scheme 1 --adversary burst --trace trace.json
     mic run --topology cycle --parties 8 --scheme b --adversary hunter
     mic info --topology clique --parties 10 *)

open Cmdliner

type topology_kind = Line | Cycle | Star | Clique | Grid | Tree | Random

let make_topology kind n seed =
  match kind with
  | Line -> Topology.Graph.line n
  | Cycle -> Topology.Graph.cycle n
  | Star -> Topology.Graph.star n
  | Clique -> Topology.Graph.clique n
  | Grid ->
      let cols = max 2 (int_of_float (sqrt (float_of_int n))) in
      Topology.Graph.grid ~rows:(max 2 ((n + cols - 1) / cols)) ~cols
  | Tree -> Topology.Graph.binary_tree n
  | Random -> Topology.Graph.random_connected (Util.Rng.create seed) ~n ~extra_edges:(n / 2)

type protocol_kind = Chatter | Ring | Broadcast | Pairwise | Lineflow

let make_protocol kind graph rounds seed =
  let n = Topology.Graph.n graph in
  match kind with
  | Chatter -> Protocol.Protocols.random_chatter graph ~rounds ~density:0.5 ~seed
  | Ring ->
      if Topology.Graph.degree graph 0 <> 2 then
        failwith "protocol 'ring' needs --topology cycle";
      Protocol.Protocols.ring_sum ~n ~bits:16
  | Broadcast -> Protocol.Protocols.broadcast_tree graph ~bits:16
  | Pairwise -> Protocol.Protocols.pairwise_ip graph ~bits:16
  | Lineflow ->
      if Topology.Graph.m graph <> n - 1 then failwith "protocol 'lineflow' needs --topology line";
      Protocol.Protocols.line_flow ~n ~phases:(max 4 (rounds / (n + 6))) ~chat:6

type adversary_kind = None_ | Iid | Burst | Link | Hunter | Mpblind

let scheme_of_string graph = function
  | "1" -> Coding.Params.algorithm_1 graph
  | "a" -> Coding.Params.algorithm_a graph
  | "b" -> Coding.Params.algorithm_b graph
  | "c" -> Coding.Params.algorithm_c graph
  | s -> failwith (Printf.sprintf "unknown scheme %S (expected 1|a|b|c)" s)

(* Logging: a global default level (--verbose = debug) refined by
   --log-level SPEC, where SPEC is a comma list of either a bare level
   ("info") or a per-source override ("mic.live:debug").  Sources are
   the per-subsystem Logs sources (mic.scheme, mic.live, mic.netsim,
   mic.runner); `--log-level list` prints them. *)
let setup_logs verbose spec =
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level (if verbose then Some Logs.Debug else Some Logs.Warning);
  match spec with
  | None -> `Ok
  | Some spec when String.lowercase_ascii spec = "list" ->
      List.iter
        (fun src -> Format.printf "%-20s %s@." (Logs.Src.name src) (Logs.Src.doc src))
        (List.sort
           (fun a b -> String.compare (Logs.Src.name a) (Logs.Src.name b))
           (Logs.Src.list ()));
      `List
  | Some spec -> (
      let parse_level s =
        match Logs.level_of_string (String.trim s) with
        | Ok l -> l
        | Error (`Msg m) -> failwith m
      in
      try
        List.iter
          (fun item ->
            let item = String.trim item in
            if item <> "" then
              match String.index_opt item ':' with
              | None -> Logs.set_level (parse_level item)
              | Some i ->
                  let name = String.sub item 0 i in
                  let lvl = parse_level (String.sub item (i + 1) (String.length item - i - 1)) in
                  (match
                     List.find_opt (fun s -> Logs.Src.name s = name) (Logs.Src.list ())
                   with
                  | Some src -> Logs.Src.set_level src lvl
                  | None -> failwith (Printf.sprintf "unknown log source %S (try --log-level list)" name)))
          (String.split_on_char ',' spec);
        `Ok
      with Failure m ->
        Format.eprintf "mic: bad --log-level: %s@." m;
        `Error)

(* The fault plan behind --crash/--stall/--overload: the first [crash]
   parties crash-stop early, edge 0 stalls for [stall] rounds, and
   [overload] scales the noise past the budget by that factor. *)
let fault_plan ~crash ~stall ~overload ~rate ~seed t =
  let specs = ref [] in
  for i = 0 to crash - 1 do
    specs := Faults.Plan.Crash { party = i; at_iteration = 2 + i; recover_at = None } :: !specs
  done;
  if stall > 0 then
    specs := Faults.Plan.Link_stall { edge = 0; from_round = 50; rounds = stall } :: !specs;
  if overload > 0. then
    specs :=
      Faults.Plan.Noise_overload
        { factor = overload; from_round = 0; rounds = 1_000_000_000; rate = Float.max rate 1e-4 }
      :: !specs;
  Faults.Plan.make ~key:(Printf.sprintf "mic:%d:%d" seed t) !specs

(* --trace FILE with one trial writes FILE itself; with several, each
   trial gets its own numbered file (FILE.<trial>.json for FILE ending
   in .json) so later trials never clobber earlier ones. *)
let trace_path f ~trial ~trials =
  if trials = 1 then f
  else
    let ext = match Filename.extension f with "" -> ".json" | e -> e in
    let base = if Filename.extension f = "" then f else Filename.remove_extension f in
    Printf.sprintf "%s.%d%s" base trial ext

(* --attack FILE: replay a saved attack scenario (see lib/advsearch) and
   print each trial's outcome class; when the scenario pins expected
   classes, a replay mismatch exits non-zero. *)
let replay_attack ~postmortem path =
  match Advsearch.Scenario.load ~path with
  | Error e ->
      Format.eprintf "mic: cannot load attack scenario %s: %s@." path e;
      2
  | Ok sc ->
      Format.printf "scenario %s: algorithm %s on %s, %d rounds, %d trial(s)@."
        sc.Advsearch.Scenario.name sc.Advsearch.Scenario.algorithm
        sc.Advsearch.Scenario.topology sc.Advsearch.Scenario.rounds
        sc.Advsearch.Scenario.trials;
      Format.printf "attack: %s@."
        (Coding.Attacks.candidate_to_string sc.Advsearch.Scenario.candidate);
      let print_trials rs =
        List.iter
          (fun (r : Advsearch.Scenario.trial_replay) ->
            Format.printf "trial %d [%s]: cc=%d corruptions=%d noise=%.5f%s@."
              r.Advsearch.Scenario.trial r.Advsearch.Scenario.outcome_class
              r.Advsearch.Scenario.cc r.Advsearch.Scenario.corruptions
              r.Advsearch.Scenario.noise_fraction
              (if r.Advsearch.Scenario.hunter_hits > 0 then
                 Printf.sprintf " hunter_hits=%d" r.Advsearch.Scenario.hunter_hits
               else ""))
          rs
      in
      if postmortem then begin
        (* Re-run trial 0 with an enabled sink for the diagnosis. *)
        let sink = Trace.Sink.create () in
        ignore (Advsearch.Scenario.run_trial ~sink sc 0);
        Format.printf "%a" Obsv.Postmortem.pp (Obsv.Postmortem.analyze (Obsv.Timeline.of_sink sink))
      end;
      (match Advsearch.Scenario.check ~jobs:1 sc with
       | Ok rs ->
           print_trials rs;
           (match sc.Advsearch.Scenario.expected with
            | Some _ -> Format.printf "=> replay matches the pinned outcome classes@."
            | None -> Format.printf "=> no pinned outcome classes (scenario is unpinned)@.");
           0
       | Error msg ->
           print_trials (Advsearch.Scenario.replay ~jobs:1 sc);
           Format.eprintf "mic: %s@." msg;
           1)

(* Map mic's (topology enum, parties) to lib/advsearch's spec grammar. *)
let topology_spec kind n =
  match kind with
  | Line -> Printf.sprintf "line:%d" n
  | Cycle -> Printf.sprintf "cycle:%d" n
  | Star -> Printf.sprintf "star:%d" n
  | Clique -> Printf.sprintf "clique:%d" n
  | Tree -> Printf.sprintf "tree:%d" n
  | Grid ->
      let cols = max 2 (int_of_float (sqrt (float_of_int n))) in
      Printf.sprintf "grid:%d:%d" (max 2 ((n + cols - 1) / cols)) cols
  | Random -> failwith "--attack-search does not support --topology random"

(* --attack-search: a small-budget inline search over the attack space
   for the selected scheme/topology/rounds; --attack-out saves the best
   discovered attack as a replayable scenario with pinned outcomes. *)
let search_attack ~topology ~parties ~scheme_name ~rounds ~seed ~out =
  let topo = topology_spec topology parties in
  let senv = Advsearch.Search.env ~algorithm:scheme_name ~topology:topo ~rounds in
  let cfg =
    {
      (Advsearch.Search.default_config ~key:(Printf.sprintf "mic:attack:%d" seed)) with
      Advsearch.Search.generations = 2;
      population = 4;
      trials = 2;
      jobs = Runner.Pool.default_jobs ();
    }
  in
  Format.printf "searching: algorithm %s on %s, %d rounds (%d gen x %d pop x %d trials)@."
    scheme_name topo rounds cfg.Advsearch.Search.generations
    cfg.Advsearch.Search.population cfg.Advsearch.Search.trials;
  let t = Advsearch.Search.run cfg senv in
  let open Advsearch.Search in
  List.iter
    (fun (e : eval) ->
      Format.printf "  gen %d: %-40s score %7.1f fail %d/%d [%s]@." e.generation
        (Coding.Attacks.candidate_to_string e.candidate)
        e.score e.failures e.trials e.classes)
    t.evals;
  Format.printf "frontier (budget 1/rate_denom vs failure probability):@.";
  List.iter
    (fun (e : eval) ->
      Format.printf "  rd=%-5d fail_p=%.2f %s@." e.candidate.Coding.Attacks.rate_denom
        (failure_prob e)
        (Coding.Attacks.candidate_to_string e.candidate))
    t.frontier;
  Format.printf "best: %s (score %.1f)@."
    (Coding.Attacks.candidate_to_string t.best.candidate)
    t.best.score;
  (match out with
   | None -> ()
   | Some path ->
       let sc =
         Advsearch.Scenario.pin_expected
           (scenario_of_eval ~name:(Filename.remove_extension (Filename.basename path)) senv t.best)
       in
       Advsearch.Scenario.save ~path sc;
       Format.printf "wrote %s (expected classes pinned; replay with mic run --attack %s)@." path
         path);
  0

let run_cmd topology parties scheme_name protocol rounds adversary rate budget_denom seed
    trace_file trials crash stall overload backend_kind shards ragged postmortem
    verbose log_level metrics_file attack attack_search attack_out =
  match setup_logs verbose log_level with
  | `List -> 0
  | `Error -> 2
  | `Ok ->
  if attack <> None || attack_search then
    match attack with
    | Some path -> replay_attack ~postmortem path
    | None -> search_attack ~topology ~parties ~scheme_name ~rounds ~seed ~out:attack_out
  else begin
  let graph = make_topology topology parties seed in
  let pi = make_protocol protocol graph rounds seed in
  let params = scheme_of_string graph scheme_name in
  let backend =
    match backend_kind with
    | `Lockstep -> Coding.Scheme.Lockstep
    | `Live -> Coding.Scheme.Live (Live.Config.make ?shards ~ragged_d:ragged ())
  in
  (match backend with
  | Coding.Scheme.Live c -> Format.printf "backend: live %a@." Live.Config.pp c
  | Coding.Scheme.Lockstep -> ());
  Format.printf "network: n=%d m=%d diameter=%d | %s | K=%d tau=%d | CC(Pi)=%d@."
    (Topology.Graph.n graph) (Topology.Graph.m graph) (Topology.Graph.diameter graph)
    params.Coding.Params.name params.Coding.Params.k params.Coding.Params.tau (Protocol.Pi.cc pi);
  let successes = ref 0 in
  let traces_written = ref [] in
  for t = 0 to trials - 1 do
    let adv_rng = Util.Rng.create (seed + (1000 * t) + 1) in
    let adversary, hook, stats =
      match adversary with
      | None_ -> (Netsim.Adversary.Silent, None, None)
      | Iid -> (Netsim.Adversary.iid adv_rng ~rate, None, None)
      | Burst ->
          ( Netsim.Adversary.burst adv_rng ~start_round:(300 + (100 * t)) ~len:30 ~dirs:[ 0; 1 ],
            None,
            None )
      | Link ->
          ( Netsim.Adversary.adaptive_link_target ~edge_dirs:[ 0; 1 ] ~rate_denom:budget_denom
              ~phases:[ Netsim.Adversary.Simulation ],
            None,
            None )
      | Mpblind -> (Coding.Attacks.mp_blind ~rate_denom:budget_denom, None, None)
      | Hunter ->
          let adv, hook, stats =
            Coding.Attacks.collision_hunter ~graph ~edge:0 ~depth:4 ~rate_denom:budget_denom ()
          in
          (adv, Some hook, Some stats)
    in
    let faults = fault_plan ~crash ~stall ~overload ~rate ~seed t in
    let observing = trace_file <> None || postmortem in
    let sink = if observing then Trace.Sink.create () else Trace.Sink.disabled in
    let outcome =
      Coding.Scheme.run_outcome
        ~config:
          (Coding.Scheme.Config.make
             ~trace:(observing || metrics_file <> None)
             ~sink ?spy_hook:hook ~faults ~backend ())
        ~rng:(Util.Rng.create (seed + t)) params pi adversary
    in
    (match metrics_file with
    | None -> ()
    | Some f ->
        let snap =
          Coding.Report.metrics ~k:params.Coding.Params.k ~m:(Topology.Graph.m graph) outcome
        in
        if Filename.extension f = ".jsonl" then begin
          Metrics.Expo.append_jsonl ~path:f snap;
          Format.printf "  [metrics: %d series appended -> %s]@." (List.length snap) f
        end
        else begin
          let path = trace_path f ~trial:t ~trials in
          Metrics.Expo.write_openmetrics ~path snap;
          Format.printf "  [metrics: %d series -> %s]@." (List.length snap) path
        end);
    (match trace_file with
    | None -> ()
    | Some f ->
        let path = trace_path f ~trial:t ~trials in
        Trace.Export.write ~path (Trace.Export.chrome ~timing:true sink);
        traces_written := path :: !traces_written;
        Format.printf "  [trace: %d events (%d dropped) -> %s]@." (Trace.Sink.seq sink)
          (Trace.Sink.dropped sink) path);
    if postmortem then begin
      let pm = Obsv.Postmortem.analyze (Obsv.Timeline.of_sink sink) in
      Format.printf "%a" Obsv.Postmortem.pp pm
    end;
    (match Faults.Outcome.result outcome with
    | Some result ->
        if result.Coding.Scheme.success then incr successes;
        Format.printf "trial %d [%s]: %a%s@." t (Faults.Outcome.label outcome)
          Coding.Report.pp_summary result
          (match stats with
          | Some s -> Printf.sprintf " hidden=%d/%d" s.Coding.Attacks.hits s.Coding.Attacks.attempts
          | None -> "");
        if trace_file <> None then
          Coding.Report.pp_trace Format.std_formatter result.Coding.Scheme.trace
    | None ->
        (match outcome with
        | Faults.Outcome.Aborted (reason, _) ->
            Format.printf "trial %d [aborted]: %s@." t (Faults.Outcome.abort_to_string reason)
        | _ -> assert false));
    match Faults.Outcome.diagnosis outcome with
    | Some d ->
        Format.printf "  diagnosis: %a@." Faults.Outcome.pp_diagnosis d
    | None -> ()
  done;
  if !traces_written <> [] then
    Format.printf "traces written: %s@." (String.concat " " (List.rev !traces_written));
  Format.printf "=> %d/%d successes@." !successes trials;
  if !successes < trials then 1 else 0
  end

let info_cmd topology parties seed =
  let graph = make_topology topology parties seed in
  Format.printf "%a@." Topology.Graph.pp graph;
  Format.printf "n=%d m=%d max_degree=%d diameter=%d@." (Topology.Graph.n graph)
    (Topology.Graph.m graph) (Topology.Graph.max_degree graph) (Topology.Graph.diameter graph);
  let tree = Topology.Graph.bfs_tree graph in
  Format.printf "bfs tree depth=%d (flag-passing rounds: %d)@." tree.Topology.Graph.depth
    (Coding.Flag_passing.rounds_needed tree);
  List.iter
    (fun p -> Format.printf "%a@." Coding.Report.pp_params p)
    [
      Coding.Params.algorithm_1 graph;
      Coding.Params.algorithm_a graph;
      Coding.Params.algorithm_b graph;
      Coding.Params.algorithm_c graph;
    ];
  0

(* --- cmdliner wiring --- *)

let topology_conv =
  Arg.enum
    [ ("line", Line); ("cycle", Cycle); ("star", Star); ("clique", Clique); ("grid", Grid);
      ("tree", Tree); ("random", Random) ]

let protocol_conv =
  Arg.enum
    [ ("chatter", Chatter); ("ring", Ring); ("broadcast", Broadcast); ("pairwise", Pairwise);
      ("lineflow", Lineflow) ]

let adversary_conv =
  Arg.enum
    [ ("none", None_); ("iid", Iid); ("burst", Burst); ("link", Link); ("hunter", Hunter);
      ("mpblind", Mpblind) ]

let topology_t = Arg.(value & opt topology_conv Cycle & info [ "topology"; "t" ] ~doc:"Network topology.")
let parties_t = Arg.(value & opt int 8 & info [ "parties"; "n" ] ~doc:"Number of parties.")
let scheme_t = Arg.(value & opt string "1" & info [ "scheme"; "s" ] ~doc:"Coding scheme: 1, a, b or c.")
let protocol_t = Arg.(value & opt protocol_conv Chatter & info [ "protocol"; "p" ] ~doc:"Protocol Pi.")
let rounds_t = Arg.(value & opt int 300 & info [ "rounds" ] ~doc:"Protocol length in rounds.")
let adversary_t = Arg.(value & opt adversary_conv Iid & info [ "adversary"; "a" ] ~doc:"Noise model.")
let rate_t = Arg.(value & opt float 0.001 & info [ "rate" ] ~doc:"Per-slot corruption rate (iid).")

let budget_t =
  Arg.(value & opt int 1000 & info [ "budget-denom" ] ~doc:"Adaptive budget: 1/DENOM of traffic.")

let seed_t = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Simulation seed.")
let trace_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Record a structured trace of every trial (phase spans, fault/corruption counters, \
           per-iteration potential) and write it as Chrome trace-event JSON.  A single trial \
           writes $(docv) itself; with --trials N each trial t writes its own numbered file \
           (name.t.json for $(docv) of name.json).  At --ragged 0 the export is the same \
           under either backend and at any --shards.  Also prints the per-iteration global \
           state table.")
let trials_t = Arg.(value & opt int 1 & info [ "trials" ] ~doc:"Independent trials.")

let postmortem_t =
  Arg.(
    value & flag
    & info [ "postmortem" ]
        ~doc:
          "Trace each trial (even without --trace) and print a structured diagnosis: first \
           divergence, blame attribution (adversary noise vs injected fault vs hash collision, \
           with phase/iteration/party/link), and potential-invariant findings.")
let verbose_t = Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Debug logging.")

let log_level_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "log-level" ] ~docv:"SPEC"
        ~doc:
          "Log levels as a comma list of $(i,LEVEL) (global) or $(i,SOURCE:LEVEL) (one \
           subsystem), e.g. $(b,--log-level warning,mic.live:debug).  Levels: quiet, app, \
           error, warning, info, debug.  Sources: mic.scheme, mic.live, mic.netsim, \
           mic.runner ($(b,--log-level list) prints them).  Overrides --verbose.")

let metrics_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:
          "Write every trial's metrics, projected from its outcome when it ends: outcome \
           tallies, iterations, meeting-points truncations, rewinds, Φ stalls and the last Φ \
           (the run keeps its per-iteration trace for these), communication, corruptions, \
           run-end noise rate, rounds, and stalled and injected symbols.  A $(docv) ending \
           in .jsonl gets one appended JSON line per trial; any other name is written as \
           OpenMetrics text, numbered per trial like --trace (name.t.om).  Every series is \
           count-valued, so the file is the same at any --shards at --ragged 0.")

let crash_t =
  Arg.(value & opt int 0 & info [ "crash" ] ~doc:"Crash-stop the first $(docv) parties early.")

let stall_t =
  Arg.(value & opt int 0 & info [ "stall" ] ~doc:"Force edge 0 silent for $(docv) rounds.")

let overload_t =
  Arg.(
    value & opt float 0.
    & info [ "overload" ]
        ~doc:"Inject unbudgeted noise at $(docv) times the iid rate (and scale adaptive budgets).")

let backend_conv = Arg.enum [ ("lockstep", `Lockstep); ("live", `Live) ]

let backend_t =
  Arg.(
    value & opt backend_conv `Lockstep
    & info [ "backend" ]
        ~doc:
          "Execution backend: $(b,lockstep) (the reference round loop) or $(b,live) (the same \
           loop with --ragged keyed jitter per round and jitter unit).  Both run every party \
           on one domain; at --ragged 0 their output, trace and count metrics are \
           identical.")

let shards_t =
  Arg.(
    value
    & opt (some int) None
    & info [ "shards" ] ~docv:"N"
        ~doc:
          "Jitter units for --backend live: contiguous party ranges, each drawing its own \
           ragged lags (default: 1 on every host, so a --ragged run reproduces anywhere).  \
           No effect at --ragged 0.")

let ragged_t =
  Arg.(
    value & opt int 0
    & info [ "ragged" ] ~docv:"D"
        ~doc:
          "Ragged-synchrony slack for --backend live: a jitter unit's round may land up to \
           $(docv) rounds late, drawn by keyed jitter per round and unit (exactly \
           reproducible; the draws change with --shards); the delays surface as insertion/deletion noise booked \
           through the fault accounting.  0 (default) keeps rounds lockstep-equivalent.")

let attack_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "attack" ] ~docv:"FILE"
        ~doc:
          "Replay a saved attack scenario (JSON, see lib/advsearch) instead of running a \
           simulation: the file fixes algorithm, topology, workload, attack candidate and \
           trial keys, so the replay is byte-deterministic.  Prints each trial's outcome \
           class; exits non-zero when the scenario pins expected classes and the replay \
           deviates.  Combine with --postmortem for a trace diagnosis of trial 0.")

let attack_search_t =
  Arg.(
    value & flag
    & info [ "attack-search" ]
        ~doc:
          "Run a small-budget attack-space search (2 generations x 4 candidates x 2 trials) \
           against the selected --scheme/--topology/--parties/--rounds, print every \
           evaluated candidate and the (budget, failure probability) frontier, and report \
           the best discovered attack.  Deterministic in --seed.")

let attack_out_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "attack-out" ] ~docv:"FILE"
        ~doc:
          "With --attack-search: save the best discovered attack to $(docv) as a replayable \
           scenario with its expected outcome classes pinned.")

let run_term =
  Term.(
    const run_cmd $ topology_t $ parties_t $ scheme_t $ protocol_t $ rounds_t $ adversary_t
    $ rate_t $ budget_t $ seed_t $ trace_t $ trials_t $ crash_t $ stall_t
    $ overload_t $ backend_t $ shards_t $ ragged_t $ postmortem_t $ verbose_t $ log_level_t
    $ metrics_t $ attack_t $ attack_search_t $ attack_out_t)

let info_term = Term.(const info_cmd $ topology_t $ parties_t $ seed_t)

let cmds =
  [
    Cmd.v (Cmd.info "run" ~doc:"Simulate a protocol over a noisy network with a coding scheme.")
      run_term;
    Cmd.v (Cmd.info "info" ~doc:"Show topology and scheme parameters.") info_term;
  ]

let () =
  exit
    (Cmd.eval'
       (Cmd.group
          (Cmd.info "mic" ~version:"1.0"
             ~doc:"Multiparty interactive coding for insertions, deletions and substitutions")
          cmds))
