(* The experiment harness: regenerates every table/figure-equivalent the
   paper's claims support (see DESIGN.md §3 for the index and
   EXPERIMENTS.md for paper-vs-measured).

   Usage:
     dune exec bench/main.exe            # run everything
     dune exec bench/main.exe t1 e5 e7   # run a subset
     dune exec bench/main.exe -- -j 4 e2 # 4 worker domains for the trials
     dune exec bench/main.exe -- --list  # list experiment ids
     dune exec bench/main.exe smoke trace  # one smoke test (see [smokes])

   Trials run on lib/runner's domain pool; the job count comes from
   -j N (or -jN), else the MIC_JOBS environment variable, else the
   machine's recommended domain count.  Published numbers are
   job-count-invariant (see DESIGN.md §Runner). *)

let experiments =
  [
    ("t1", "Table 1: scheme comparison grid", Exp_t1.run);
    ("e2", "Theorem 1.1: success vs oblivious noise", Exp_e2.run);
    ("e3", "Theorem 1.2: adaptive attacks", Exp_e3.run);
    ("e4", "constant rate vs network size", Exp_e4.run);
    ("e5", "potential-function dynamics", Exp_e5.run);
    ("e6", "flag-passing ablation (line cascade)", Exp_e6.run);
    ("e7", "hash-length ablation vs collision hunter", Exp_e7.run);
    ("e8", "delta-biased vs uniform seeds", Exp_e8.run);
    ("e9", "ECC decode radius (Theorem 2.1)", Exp_e9.run);
    ("e10", "Algorithm C (Appendix B)", Exp_e10.run);
    ("e11", "relaxed vs fully-utilised model", Exp_e11.run);
    ("e12", "CC vs round complexity", Exp_e12.run);
    ("e13", "failure probability vs |Pi| + Remark 1", Exp_e13.run);
    ("e14", "empirical noise thresholds", Exp_e14.run);
    ("micro", "Bechamel micro-benchmarks", Exp_micro.run);
    ("transport", "sparse transport, raw rounds and full scheme (BENCH_transport.json)", Exp_transport.run);
    ("scale", "sparse transport at 1k-10k parties (BENCH_scale.json)", Exp_scale.run);
    ("runner", "trial-pool scaling, jobs=1 vs jobs=4 (BENCH_runner.json)", Exp_runner.run);
    ("faults", "graceful degradation under crashes/overload (BENCH_faults.json)", Exp_faults.run);
    ("trace", "observability probes: overhead + determinism (BENCH_trace.json)", Exp_trace.run);
    ("live", "live engine: round floor, ragged insdel sweep (BENCH_live.json)", Exp_live.run);
    ("adv", "attack-space search: discovered vs baseline adversaries (BENCH_adv.json)", Exp_adv.run);
    ("metrics", "metric snapshots projected from outcomes: merge + shard determinism (BENCH_metrics.json)", Exp_metrics.run);
  ]

(* The toy-scale smoke tests that `dune runtest` runs, one alias each
   (bench/dune): `main.exe smoke <id>`.  Each asserts its bench's
   invariants and writes its BENCH_<id>.json only when given [json]. *)
let bench_smokes : (string * (?json:string -> unit -> unit)) list =
  [
    ("transport", Exp_transport.smoke);
    ("runner", Exp_runner.smoke);
    ("faults", Exp_faults.smoke);
    ("trace", Exp_trace.smoke);
    ("scale", Exp_scale.smoke);
    ("live", Exp_live.smoke);
    ("adv", Exp_adv.smoke);
    ("metrics", Exp_metrics.smoke);
  ]

(* The report smoke flattens what every bench smoke writes. *)
let smokes = bench_smokes @ [ ("report", fun ?json:_ () -> Exp_report.smoke bench_smokes) ]

(* Pull -j N / -jN / --jobs N out of the argument list; the rest are
   experiment ids. *)
let parse_jobs args =
  let rec go acc = function
    | [] -> (None, List.rev acc)
    | ("-j" | "--jobs") :: n :: rest -> (int_of_string_opt n, List.rev_append acc rest)
    | [ ("-j" | "--jobs") ] ->
        Format.eprintf "-j expects a worker count@.";
        exit 2
    | a :: rest when String.length a > 2 && String.sub a 0 2 = "-j" ->
        (int_of_string_opt (String.sub a 2 (String.length a - 2)), List.rev_append acc rest)
    | a :: rest -> go (a :: acc) rest
  in
  go [] args

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let args = List.filter (fun a -> a <> "--") args in
  (* `report [DIR]` is a command, not an experiment: it consumes the
     BENCH_*.json files the experiments above left behind, appends to
     BENCH_history.jsonl, writes OBSERVATORY.md and exits non-zero on
     regression. *)
  (match args with
  | "report" :: rest -> exit (Exp_report.run_cli rest)
  | [ "smoke"; id ] -> (
      match List.assoc_opt id smokes with
      | Some smoke ->
          smoke ();
          exit (Exp_common.exit_code ())
      | None ->
          Format.eprintf "unknown smoke %S (one of: %s)@." id
            (String.concat ", " (List.map fst smokes));
          exit 2)
  | "smoke" :: _ ->
      Format.eprintf "smoke takes one id@.";
      exit 2
  | _ -> ());
  let jobs_arg, args = parse_jobs args in
  (match jobs_arg with
  | Some n when n >= 1 -> Exp_common.jobs := min n 64
  | Some _ ->
      Format.eprintf "-j expects a positive worker count@.";
      exit 2
  | None -> ());
  if List.mem "--list" args then begin
    List.iter (fun (id, descr, _) -> Format.printf "%-6s %s@." id descr) experiments;
    Format.printf "%-6s %s@." "report"
      "regression observatory: diff BENCH_*.json vs history, write OBSERVATORY.md";
    Format.printf "%-6s %s@." "smoke"
      ("toy-scale smoke test: smoke <id>, id one of " ^ String.concat ", " (List.map fst smokes))
  end
  else begin
    let selected =
      if args = [] then experiments
      else
        List.filter_map
          (fun a ->
            match List.find_opt (fun (id, _, _) -> id = String.lowercase_ascii a) experiments with
            | Some e -> Some e
            | None ->
                Format.eprintf "unknown experiment %S (try --list)@." a;
                exit 2)
          args
    in
    let (), wall =
      Exp_common.time (fun () ->
          List.iter (fun (id, _, run) -> Exp_common.timed id run) selected)
    in
    Format.printf "@.[%d experiment(s) in %.1f s, jobs=%d]@." (List.length selected) wall
      !Exp_common.jobs;
    (* Captured trial errors are never fatal to a sweep, but they must
       not produce a clean exit status either (cells marked E:n). *)
    if !Exp_common.total_errors > 0 then
      Format.eprintf "[%d trial error(s) captured during the run]@." !Exp_common.total_errors;
    exit (Exp_common.exit_code ())
  end
