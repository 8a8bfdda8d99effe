module Json = Util.Json

type t = {
  experiment : string;
  key : string;
  trials : int;
  successes : int;
  errors : int;
  jobs : int;
  wall_s : float;
  metrics : (string * Accum.summary) list;
}

let wilson t = Util.Stats.wilson_interval ~successes:t.successes ~trials:t.trials

let summary_json (s : Accum.summary) =
  Json.obj
    [
      ("n", Json.int s.Accum.n);
      ("mean", Json.num s.Accum.mean);
      ("stddev", Json.num s.Accum.stddev);
      ("min", Json.num s.Accum.min);
      ("max", Json.num s.Accum.max);
      ("p50", Json.num s.Accum.p50);
      ("p95", Json.num s.Accum.p95);
    ]

let to_json ?(timing = true) t =
  let lo, hi = wilson t in
  let rate = float_of_int t.successes /. float_of_int (max 1 t.trials) in
  let base =
    [
      ("experiment", Json.str t.experiment);
      ("key", Json.str t.key);
      ("trials", Json.int t.trials);
      ("successes", Json.int t.successes);
      ("errors", Json.int t.errors);
      ("success_rate", Json.num rate);
      ("wilson95", Json.arr [ Json.num lo; Json.num hi ]);
    ]
  in
  let timing_fields =
    if not timing then []
    else
      [
        ("jobs", Json.int t.jobs);
        ("wall_s", Json.num t.wall_s);
        ("per_trial_s", Json.num (t.wall_s /. float_of_int (max 1 t.trials)));
      ]
  in
  let metrics =
    ("metrics", Json.obj (List.map (fun (name, s) -> (name, summary_json s)) t.metrics))
  in
  Json.obj (base @ timing_fields @ [ metrics ])

let write_file ~path contents =
  let oc = open_out path in
  output_string oc contents;
  if String.length contents = 0 || contents.[String.length contents - 1] <> '\n' then
    output_char oc '\n';
  close_out oc
