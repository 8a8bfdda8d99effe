(* REPORT — the bench regression observatory.

   `bench/main.exe report [DIR]` scans DIR (default: the current
   directory) for BENCH_*.json snapshots, flattens each to named scalar
   metrics (Obsv.Observatory), appends one entry to BENCH_history.jsonl
   and diffs it against the previous entry: exact metrics — success
   counts, determinism flags, trial statistics — are compared exactly;
   timed metrics — wall clocks, rates, allocation counts — within a
   loose relative tolerance that absorbs CI-box jitter.  The rendered
   OBSERVATORY.md keeps everything above the timing marker exact-only,
   so that section is itself byte-stable across job counts.  Exit 1 on
   any regression (including a metric disappearing), 0 otherwise.

   A snapshot that flattens two values to one metric name (two array
   rows sharing a label) is refused with exit 1: the diff would gate only
   one of them.

   The smoke variant (`main.exe smoke report`, `report-smoke` alias
   inside `dune runtest`) drives the full gate: every bench smoke's
   snapshot must flatten to distinct names, one deterministic mini-sweep
   rendered at jobs=1 and jobs=4 must produce byte-identical exact
   sections, an unchanged re-run must pass, and a synthetic exact-metric
   change or name collision must fail the gate. *)

let history_file = "BENCH_history.jsonl"
let output_file = "OBSERVATORY.md"

(* BENCH_history.jsonl grows by one line per report run, forever, on
   long-lived CI checkouts.  Cap it: keep the newest entries only
   (run numbers survive rotation), overridable via MIC_HISTORY_CAP. *)
let history_cap () =
  match Option.bind (Sys.getenv_opt "MIC_HISTORY_CAP") int_of_string_opt with
  | Some n when n >= 1 -> n
  | _ -> 200

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

let bench_files dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> String.starts_with ~prefix:"BENCH_" f && Filename.extension f = ".json")
  |> List.sort String.compare

(* "BENCH_trace.json" -> "trace" *)
let label_of_file f = Filename.remove_extension (String.sub f 6 (String.length f - 6))

(* Metric names that more than one value flattens to, sorted. *)
let duplicate_metrics benches =
  let names =
    List.concat_map (fun (label, doc) -> List.map fst (Obsv.Observatory.flatten ~label doc)) benches
    |> List.sort String.compare
  in
  let rec dups = function
    | a :: (b :: _ as rest) when a = b -> a :: dups (List.filter (( <> ) a) rest)
    | _ :: rest -> dups rest
    | [] -> []
  in
  dups names

let run_in ?tolerance ~dir () =
  if not (Sys.file_exists dir && Sys.is_directory dir) then begin
    Format.eprintf "report: %s is not a directory@." dir;
    2
  end
  else begin
    let files = bench_files dir in
    let benches =
      List.filter_map
        (fun f ->
          match Util.Json.parse_opt (read_file (Filename.concat dir f)) with
          | Some j -> Some (label_of_file f, j)
          | None ->
              Format.eprintf "report: %s does not parse, skipping@." f;
              None)
        files
    in
    match duplicate_metrics benches with
    | _ :: _ as dups ->
        List.iter
          (fun name ->
            Format.eprintf "report: metric %s is flattened from more than one value@." name)
          dups;
        1
    | [] ->
        if benches = [] then
          Format.printf "report: no BENCH_*.json in %s — recording an empty entry@." dir;
        let history_path = Filename.concat dir history_file in
        let prev = match List.rev (Obsv.Observatory.load_history ~path:history_path) with
          | e :: _ -> Some e
          | [] -> None
        in
        let run = match prev with Some p -> p.Obsv.Observatory.run + 1 | None -> 1 in
        let cur = Obsv.Observatory.entry_of_benches ~run benches in
        let deltas =
          match prev with
          | Some prev -> Obsv.Observatory.diff ?tolerance ~prev cur
          | None -> []
        in
        let regs = Obsv.Observatory.regressions deltas in
        Obsv.Observatory.append_history ~max_entries:(history_cap ()) ~path:history_path cur;
        let md_path = Filename.concat dir output_file in
        write_file md_path (Obsv.Observatory.render_markdown ~prev ~cur deltas);
        Format.printf "report: run %d, %d bench file(s), %d exact + %d timed metric(s) -> %s@." run
          (List.length benches)
          (List.length cur.Obsv.Observatory.exact)
          (List.length cur.Obsv.Observatory.timed)
          md_path;
        (match prev with
        | None -> Format.printf "report: baseline recorded, nothing to compare@."
        | Some p ->
            Format.printf "report: compared against run %d: %d regression(s)@."
              p.Obsv.Observatory.run (List.length regs);
            List.iter
              (fun (d : Obsv.Observatory.delta) ->
                let v = function None -> "(absent)" | Some f -> Printf.sprintf "%.6f" f in
                Format.printf "  REGRESSED %s %s: %s -> %s@."
                  (if d.Obsv.Observatory.timed then "[timed]" else "[exact]")
                  d.Obsv.Observatory.metric
                  (v d.Obsv.Observatory.before)
                  (v d.Obsv.Observatory.after))
              regs);
        if regs = [] then 0 else 1
  end

let run_cli args =
  match args with
  | [] -> run_in ~dir:"." ()
  | [ dir ] -> run_in ~dir ()
  | _ ->
      Format.eprintf "report takes at most one directory argument@.";
      2

(* ---------- smoke ---------- *)

(* One deterministic mini-sweep; every exact metric below is a pure
   function of the trial keys, so the document's exact content must not
   depend on the job count (wall_s and jobs legitimately do). *)
let scenario_json ~jobs =
  let g = Topology.Graph.cycle 5 in
  let pi = Exp_common.workload ~rounds:40 g in
  let params = Coding.Params.algorithm_1 g in
  let rate = 1. /. (100. *. float_of_int (Topology.Graph.m g)) in
  let s =
    Exp_common.run_trials ~jobs ~trials:3 (fun t ->
        Coding.Scheme.run
          ~rng:(Exp_common.trial_rng "report:smoke" t)
          params pi
          (Netsim.Adversary.iid (Exp_common.trial_rng "report:smoke:adv" t) ~rate))
  in
  let open Util.Json in
  obj
    [
      ("bench", str "report_smoke");
      ("trials", int s.Exp_common.trials);
      ("successes", int s.Exp_common.successes);
      ("errors", int s.Exp_common.errors);
      ("jobs", int s.Exp_common.jobs);
      ("wall_s", num s.Exp_common.wall);
      ("rate_blowup", Exp_common.accum_json s.Exp_common.blowup);
      ("iterations", Exp_common.accum_json s.Exp_common.iters);
    ]

let fresh_dir name =
  if Sys.file_exists name then
    Array.iter (fun f -> Sys.remove (Filename.concat name f)) (Sys.readdir name)
  else Sys.mkdir name 0o755;
  name

let replace_once s ~sub ~by =
  let n = String.length s and m = String.length sub in
  let rec find i = if i + m > n then None else if String.sub s i m = sub then Some i else find (i + 1) in
  match find 0 with
  | None -> failwith (Printf.sprintf "report-smoke: %S not found in bench json" sub)
  | Some i -> String.sub s 0 i ^ by ^ String.sub s (i + m) (n - i - m)

let smoke bench_smokes =
  (* Every bench's own smoke writes its snapshot; together they must
     flatten to distinct metric names, and a colliding snapshot must be
     refused. *)
  let dirb = fresh_dir "obsv_report_smoke_benches" in
  List.iter
    (fun (id, (smoke : ?json:string -> unit -> unit)) ->
      smoke ~json:(Filename.concat dirb ("BENCH_" ^ id ^ ".json")) ())
    bench_smokes;
  if run_in ~dir:dirb () <> 0 then failwith "report-smoke: bench snapshots do not report cleanly";
  write_file (Filename.concat dirb "BENCH_collide.json")
    {|{"rows": [{"key": "a", "v": 1}, {"key": "a", "v": 2}]}|};
  if run_in ~dir:dirb () <> 1 then failwith "report-smoke: colliding metric names not refused";
  let dir1 = fresh_dir "obsv_report_smoke_j1" and dir4 = fresh_dir "obsv_report_smoke_j4" in
  let j1 = scenario_json ~jobs:1 and j4 = scenario_json ~jobs:4 in
  write_file (Filename.concat dir1 "BENCH_smoke.json") j1;
  write_file (Filename.concat dir4 "BENCH_smoke.json") j4;
  (* Baseline runs record without comparing. *)
  if run_in ~dir:dir1 () <> 0 then failwith "report-smoke: baseline run regressed";
  if run_in ~dir:dir4 () <> 0 then failwith "report-smoke: baseline run regressed (jobs=4)";
  (* The report's exact section is a determinism subject across job
     counts, exactly like the pool's published numbers. *)
  let sect d = Obsv.Observatory.exact_section (read_file (Filename.concat d output_file)) in
  if sect dir1 <> sect dir4 then
    failwith "report-smoke: exact section differs between jobs=1 and jobs=4";
  (* Unchanged metrics re-reported: still clean. *)
  if run_in ~dir:dir1 () <> 0 then
    failwith "report-smoke: identical metrics flagged as regression";
  (* A synthetic exact-metric change must fail the gate... *)
  write_file (Filename.concat dir1 "BENCH_smoke.json")
    (replace_once j1 ~sub:"\"trials\": 3" ~by:"\"trials\": 2");
  if run_in ~dir:dir1 () <> 1 then
    failwith "report-smoke: synthetic exact regression not caught";
  (* ...while a rerun of the same scenario — same exact metrics, fresh
     wall clock and job count — must pass under the timed tolerance. *)
  write_file (Filename.concat dir4 "BENCH_smoke.json") (scenario_json ~jobs:2);
  if run_in ~tolerance:50. ~dir:dir4 () <> 0 then
    failwith "report-smoke: timing jitter flagged as regression";
  Format.printf "@.[report-smoke ok]@."
