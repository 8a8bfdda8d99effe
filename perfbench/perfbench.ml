(* One workload, one process:

     perfbench.exe --workload NAME --seed N --seconds S --trace 0|1
                   [--smoke] [--commit SHA]

   --trace 0 prints the end-to-end metrics; --trace 1 prints the
   per-layer split of the same trials.  The last line of standard output
   is one JSON object {correct, attempted, failed, metrics}.  See
   README.md beside this file. *)

(* The GC parameters OCaml 5 honours, pinned at start so an ambient
   OCAMLRUNPARAM cannot change results on the leader domain.  run.py also
   clears OCAMLRUNPARAM, which covers the live engine's worker domains:
   they take their minor heap size from the runtime's startup
   parameters. *)
let gc_params =
  {
    (Gc.get ()) with
    Gc.minor_heap_size = 262_144;
    space_overhead = 120;
    verbose = 0;
    custom_major_ratio = 44;
    custom_minor_ratio = 100;
    custom_minor_max_size = 70_000;
  }

(* Set-up repeats: at least 3, then more, up to 9, while the total stays
   under 4 s. *)
let setup_reps = (3, 9)
let setup_budget_s = 4.

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  smoke : bool;
  commit : string;
}

let usage () =
  prerr_endline
    "usage: perfbench.exe --workload NAME --seed N --seconds S --trace 0|1 [--smoke] [--commit SHA]";
  prerr_endline
    ("workloads: " ^ String.concat ", " (List.map (fun s -> s.Workload.name) Workload.all));
  exit 2

let parse argv =
  let rec go a = function
    | "--workload" :: v :: rest -> go { a with workload = v } rest
    | "--seed" :: v :: rest -> go { a with seed = int_of_string v } rest
    | "--seconds" :: v :: rest -> go { a with seconds = float_of_string v } rest
    | "--trace" :: ("0" | "1" as v) :: rest -> go { a with trace = v = "1" } rest
    | "--smoke" :: rest -> go { a with smoke = true } rest
    | "--commit" :: v :: rest -> go { a with commit = v } rest
    | [] -> a
    | _ -> usage ()
  in
  try
    go { workload = ""; seed = 1; seconds = 10.; trace = false; smoke = false; commit = "unknown" }
      (List.tl (Array.to_list argv))
  with Failure _ -> usage ()

(* ---- output ---- *)

let json_string s = Printf.sprintf "%S" s

let json_num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let context a spec ~trials =
  let g = Gc.get () in
  let fields =
    [
      ("workload", json_string spec.Workload.name);
      ("seed", string_of_int a.seed);
      ("seconds", json_num a.seconds);
      ("trace", string_of_int (Bool.to_int a.trace));
      ("smoke", string_of_bool a.smoke);
      ("trial_set", string_of_int trials);
      ("nproc", string_of_int (Domain.recommended_domain_count ()));
      ("ocaml", json_string Sys.ocaml_version);
      ("commit", json_string a.commit);
      ( "ocamlrunparam",
        match Sys.getenv_opt "OCAMLRUNPARAM" with Some v -> json_string v | None -> "null" );
      ( "gc",
        Printf.sprintf
          "{\"minor_heap_size\":%d,\"space_overhead\":%d,\"custom_major_ratio\":%d,\"custom_minor_ratio\":%d,\"custom_minor_max_size\":%d}"
          g.Gc.minor_heap_size g.Gc.space_overhead g.Gc.custom_major_ratio g.Gc.custom_minor_ratio
          g.Gc.custom_minor_max_size );
    ]
  in
  print_endline
    ("context {" ^ String.concat "," (List.map (fun (k, v) -> json_string k ^ ":" ^ v) fields) ^ "}")

let result ~correct ~attempted ~failed rows =
  List.iter (fun (name, v, unit) -> Printf.printf "metric %-40s %20.6f %s\n" name v unit) rows;
  let correct = correct && List.for_all (fun (_, v, _) -> Float.is_finite v) rows in
  let metrics =
    List.map
      (fun (name, v, unit) ->
        Printf.sprintf "%s:{\"value\":%s,\"unit\":%s}" (json_string name) (json_num v)
          (json_string unit))
      rows
  in
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n%!" correct
    attempted failed (String.concat "," metrics)

(* ---- set-up ---- *)

(* Build everything and run the untimed warm-up trial, [min_reps] to
   [max_reps] times (see [setup_reps]), each after one reference loop;
   report the medians of the normalised and the raw times.  The last
   build is the one measured. *)
let setup spec ~seed ~reps:(min_reps, max_reps) =
  let rec go i spent acc raw last =
    if i >= max_reps || (i >= min_reps && spent >= setup_budget_s) then
      (Measure.median acc, Measure.median raw, Option.get last)
    else begin
      let reference = Measure.reference_loop () in
      let t0 = Measure.now () in
      let env = Workload.build spec ~seed in
      let warm = Workload.run env env.Workload.warm_up in
      let dt = Measure.now () -. t0 in
      go (i + 1) (spent +. dt)
        (Measure.normalise ~reference dt :: acc)
        (dt :: raw)
        (Some (env, Workload.correct env.Workload.warm_up warm))
    end
  in
  go 0 0. [] [] None

(* The live engine at d = 0 must compute exactly what the serial
   reference computes: outputs, cc and rounds of the first timed trial,
   rerun serially after the timed window. *)
let cross_check env samples =
  match (env.Workload.backend, samples) with
  | Coding.Scheme.Lockstep, _ -> true
  | Coding.Scheme.Live _, { Measure.result = Some live; trial; _ } :: _ -> (
      match Workload.run ~backend:Coding.Scheme.Lockstep env trial with
      | Some serial ->
          let same =
            live.Coding.Scheme.outputs = serial.Coding.Scheme.outputs
            && live.Coding.Scheme.cc = serial.Coding.Scheme.cc
            && live.Coding.Scheme.rounds = serial.Coding.Scheme.rounds
          in
          if not same then prerr_endline "perfbench: live engine disagrees with the serial reference";
          same
      | None -> false)
  | Coding.Scheme.Live _, _ -> false

let info fmt = Printf.printf ("info " ^^ fmt ^^ "\n")

let end_to_end a spec =
  let setup_s, raw_setup_s, (env, warm_ok) = setup spec ~seed:a.seed ~reps:setup_reps in
  let samples = Measure.sweep env ~seconds:a.seconds in
  let checked = warm_ok && cross_check env samples in
  info "digest %s" (Measure.digest samples);
  let raw s = s.Measure.wall in
  info "raw setup_s %.6f trial_wall_s %.6f rounds_per_s %.3f reference_loop_s %.6f" raw_setup_s
    (Measure.trial_wall ~wall:raw samples)
    (Measure.rounds_per_s ~wall:raw samples)
    (Measure.median (List.map (fun s -> s.Measure.reference) samples));
  let failed = Measure.failed samples in
  result ~correct:(checked && failed = 0) ~attempted:(List.length samples) ~failed
    [
      ("setup_s", setup_s, "s");
      ("trial_wall_s", Measure.trial_wall samples, "s");
      ("rounds_per_s", Measure.rounds_per_s samples, "1/s");
      ("success_rate", Measure.success_rate samples, "ratio");
      ("rate_blowup", Measure.rate_blowup samples, "x");
      ("peak_rss_mb", Measure.peak_rss_mb (), "MiB");
    ]

(* Half the window untraced, half traced, both over the first half of
   the trial set; then the layer timings. *)
let per_layer a spec =
  let _, _, (env, warm_ok) = setup spec ~seed:a.seed ~reps:(1, 1) in
  let keys = (spec.Workload.trials + 1) / 2 and seconds = a.seconds /. 2. in
  let plain = Measure.sweep ~keys env ~seconds in
  let tr = Layers.traced_sweep ~keys env ~seconds in
  let checked = warm_ok && cross_check env plain in
  let micro = Layers.micro env in
  let overhead = 100. *. ((Measure.trial_wall tr.Layers.samples /. Measure.trial_wall plain) -. 1.) in
  info "trace.dropped_events %d" tr.Layers.dropped;
  info "prof.phase.exchange.wall_s %.6f" (Layers.per_trial tr "phase.exchange");
  let all = plain @ tr.Layers.samples in
  let failed = Measure.failed all in
  result
    ~correct:(checked && failed = 0 && tr.Layers.dropped = 0)
    ~attempted:(List.length all) ~failed
    (Layers.coding tr @ Layers.untraced plain @ micro
    @ [ ("trace.overhead_pct", overhead, "%") ])

let () =
  let a = parse Sys.argv in
  let spec =
    match Workload.find a.workload with
    | Some s -> if a.smoke then Workload.tiny s else s
    | None -> usage ()
  in
  Gc.set gc_params;
  context a spec ~trials:spec.Workload.trials;
  if a.trace then per_layer a spec else end_to_end a spec
