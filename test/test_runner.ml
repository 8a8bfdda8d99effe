(* Tests for lib/runner: the trial pool's determinism contract, the
   keyed per-trial RNG derivation, the streaming accumulators, and the
   Report JSON. *)

(* --- RNG stream independence of adjacent trial keys ------------------ *)

(* Chi-square smoke test: draws from the streams of adjacent trial keys
   ("k:t" and "k:t+1") must look uniform marginally and independent
   jointly.  dof = 15 in both tests; 55 is far beyond the 99.9% critical
   value (37.7), so a failure means structure, not sampling noise. *)
let chi_square ~expected counts =
  Array.fold_left
    (fun acc c ->
      let d = float_of_int c -. expected in
      acc +. (d *. d /. expected))
    0. counts

let test_adjacent_keys_independent () =
  let n = 4096 in
  let bins = 16 in
  let a = Runner.Pool.trial_rng ~key:"chi" 0 in
  let b = Runner.Pool.trial_rng ~key:"chi" 1 in
  let marg_a = Array.make bins 0 and marg_b = Array.make bins 0 in
  let joint = Array.make (4 * 4) 0 in
  for _ = 1 to n do
    let x = Util.Rng.float a and y = Util.Rng.float b in
    let bx = min (bins - 1) (int_of_float (x *. float_of_int bins)) in
    let by = min (bins - 1) (int_of_float (y *. float_of_int bins)) in
    marg_a.(bx) <- marg_a.(bx) + 1;
    marg_b.(by) <- marg_b.(by) + 1;
    let jx = bx / 4 and jy = by / 4 in
    joint.((jx * 4) + jy) <- joint.((jx * 4) + jy) + 1
  done;
  let expected = float_of_int n /. float_of_int bins in
  let xa = chi_square ~expected marg_a in
  let xb = chi_square ~expected marg_b in
  let xj = chi_square ~expected:(float_of_int n /. 16.) joint in
  Alcotest.(check bool) (Printf.sprintf "stream t=0 uniform (chi2=%.1f)" xa) true (xa < 55.);
  Alcotest.(check bool) (Printf.sprintf "stream t=1 uniform (chi2=%.1f)" xb) true (xb < 55.);
  Alcotest.(check bool) (Printf.sprintf "joint independent (chi2=%.1f)" xj) true (xj < 55.)

let test_trial_rng_distinct () =
  (* Adjacent keys and adjacent trials give distinct streams. *)
  let first_word key t = Util.Rng.int64 (Runner.Pool.trial_rng ~key t) in
  Alcotest.(check bool) "t=0 vs t=1" true (first_word "k" 0 <> first_word "k" 1);
  Alcotest.(check bool) "key k vs k2" true (first_word "k" 0 <> first_word "k2" 0);
  Alcotest.(check bool) "reproducible" true (first_word "k" 7 = first_word "k" 7)

(* --- Pool ------------------------------------------------------------ *)

(* A deliberately uneven trial body: cost varies with t so that domains
   interleave differently at different job counts. *)
let trial_body t =
  let rng = Runner.Pool.trial_rng ~key:"pool-test" t in
  let acc = ref 0. in
  for _ = 0 to 500 + (137 * (t mod 7)) do
    acc := !acc +. Util.Rng.float rng
  done;
  !acc

let test_run_jobs_invariant () =
  let r1 = Runner.Pool.run ~jobs:1 ~trials:40 trial_body in
  let r4 = Runner.Pool.run ~jobs:4 ~trials:40 trial_body in
  Alcotest.(check int) "length" (Array.length r1) (Array.length r4);
  Array.iteri
    (fun t o1 ->
      match (o1, r4.(t)) with
      | Runner.Pool.Value a, Runner.Pool.Value b ->
          Alcotest.(check bool) (Printf.sprintf "trial %d bit-identical" t) true (a = b)
      | _ -> Alcotest.fail "unexpected Raised")
    r1

let summarize outcomes =
  let acc = Runner.Accum.create () in
  Array.iter
    (function Runner.Pool.Value v -> Runner.Accum.add acc v | Runner.Pool.Raised _ -> ())
    outcomes;
  Runner.Accum.summary acc

let test_merged_summaries_identical () =
  let s1 = summarize (Runner.Pool.run ~jobs:1 ~trials:60 trial_body) in
  let s4 = summarize (Runner.Pool.run ~jobs:4 ~trials:60 trial_body) in
  (* Structural equality on the float record: bit-identical, not close. *)
  Alcotest.(check bool) "summaries bit-identical" true (s1 = s4)

let test_fold_matches_run () =
  let via_run = summarize (Runner.Pool.run ~jobs:3 ~trials:50 trial_body) in
  let acc = Runner.Accum.create () in
  let n =
    Runner.Pool.fold ~jobs:3 ~batch:8 ~trials:50 ~init:0
      ~merge:(fun n _ o ->
        (match o with
        | Runner.Pool.Value v -> Runner.Accum.add acc v
        | Runner.Pool.Raised _ -> ());
        n + 1)
      trial_body
  in
  Alcotest.(check int) "all trials merged" 50 n;
  Alcotest.(check bool) "fold ≡ run" true (Runner.Accum.summary acc = via_run)

let test_exception_capture () =
  let outcomes =
    Runner.Pool.run ~jobs:2 ~trials:10 (fun t -> if t mod 3 = 0 then failwith "boom" else t * t)
  in
  Array.iteri
    (fun t o ->
      match o with
      | Runner.Pool.Value v ->
          Alcotest.(check bool) "value trials" true (t mod 3 <> 0 && v = t * t)
      | Runner.Pool.Raised e ->
          Alcotest.(check bool) "raised trials" true (t mod 3 = 0 && e.Runner.Pool.failed_trial = t))
    outcomes

let test_zero_trials () =
  let r = Runner.Pool.run ~jobs:4 ~trials:0 (fun _ -> assert false) in
  Alcotest.(check int) "empty" 0 (Array.length r)

(* --- Accum ----------------------------------------------------------- *)

let feed xs =
  let a = Runner.Accum.create () in
  List.iter (Runner.Accum.add a) xs;
  a

let test_accum_vs_stats () =
  let rng = Util.Rng.of_key "accum-cross-check" in
  let xs = List.init 1000 (fun _ -> Util.Rng.float rng *. 100.) in
  let s = Runner.Accum.summary (feed xs) in
  Alcotest.(check int) "n" 1000 s.Runner.Accum.n;
  Alcotest.(check (float 1e-6)) "mean" (Util.Stats.mean xs) s.Runner.Accum.mean;
  Alcotest.(check (float 1e-6)) "stddev" (Util.Stats.stddev xs) s.Runner.Accum.stddev;
  Alcotest.(check (float 1e-9))
    "min" (List.fold_left min infinity xs) s.Runner.Accum.min;
  Alcotest.(check (float 1e-9))
    "max" (List.fold_left max neg_infinity xs) s.Runner.Accum.max;
  (* 1000 samples fit the default reservoir, so percentiles are exact. *)
  Alcotest.(check (float 1e-9)) "p50" (Util.Stats.percentile 0.50 xs) s.Runner.Accum.p50;
  Alcotest.(check (float 1e-9)) "p95" (Util.Stats.percentile 0.95 xs) s.Runner.Accum.p95

let test_accum_empty () =
  let s = Runner.Accum.summary (Runner.Accum.create ()) in
  Alcotest.(check int) "n" 0 s.Runner.Accum.n;
  Alcotest.(check bool) "mean nan" true (Float.is_nan s.Runner.Accum.mean);
  (* [compare], not [=]: the empty summary's moments are nan. *)
  Alcotest.(check bool) "equals empty_summary" true (compare s Runner.Accum.empty_summary = 0)

let test_reservoir_determinism () =
  (* Overflow a tiny reservoir: the decimation is systematic (a pure
     function of the add sequence), so two identical feeds agree exactly,
     and the p95 estimate stays inside the data range. *)
  let xs = List.init 10_000 (fun i -> float_of_int ((i * 7919) mod 10_000)) in
  let mk () =
    let a = Runner.Accum.create ~reservoir:64 () in
    List.iter (Runner.Accum.add a) xs;
    Runner.Accum.summary a
  in
  let s1 = mk () and s2 = mk () in
  Alcotest.(check bool) "replay bit-identical" true (s1 = s2);
  Alcotest.(check bool)
    "p95 in range" true
    (s1.Runner.Accum.p95 >= 0. && s1.Runner.Accum.p95 <= 9999.);
  Alcotest.(check bool)
    "p95 in upper half (decimated estimate)" true
    (s1.Runner.Accum.p95 > 5000.)

(* --- Report ---------------------------------------------------------- *)

let report_of outcomes ~jobs ~wall =
  let acc = Runner.Accum.create () in
  let successes = ref 0 and errors = ref 0 in
  Array.iter
    (function
      | Runner.Pool.Value v ->
          incr successes;
          Runner.Accum.add acc v
      | Runner.Pool.Raised _ -> incr errors)
    outcomes;
  {
    Runner.Report.experiment = "test";
    key = "pool-test";
    trials = Array.length outcomes;
    successes = !successes;
    errors = !errors;
    jobs;
    wall_s = wall;
    metrics = [ ("metric", Runner.Accum.summary acc) ];
  }

let test_report_json_job_invariant () =
  let j jobs wall =
    Runner.Report.to_json ~timing:false
      (report_of (Runner.Pool.run ~jobs ~trials:30 trial_body) ~jobs ~wall)
  in
  let j1 = j 1 1.0 and j2 = j 2 0.6 and j4 = j 4 0.4 in
  Alcotest.(check string) "jobs=1 ≡ jobs=2" j1 j2;
  Alcotest.(check string) "jobs=1 ≡ jobs=4" j1 j4;
  (* With timing on, the job count is visible — the two documents differ. *)
  let t1 =
    Runner.Report.to_json (report_of (Runner.Pool.run ~jobs:1 ~trials:30 trial_body) ~jobs:1 ~wall:1.0)
  in
  let t4 =
    Runner.Report.to_json (report_of (Runner.Pool.run ~jobs:4 ~trials:30 trial_body) ~jobs:4 ~wall:0.4)
  in
  Alcotest.(check bool) "timing fields differ" true (t1 <> t4)

let test_pool_oversubscription () =
  (* jobs ≫ cores: run_slice clamps worker domains to the hardware's
     recommended count, and the trial-keyed RNG keeps the report
     byte-identical to the single-domain run regardless. *)
  let j jobs wall =
    Runner.Report.to_json ~timing:false
      (report_of (Runner.Pool.run ~jobs ~trials:96 trial_body) ~jobs ~wall)
  in
  Alcotest.(check string) "jobs=64 ≡ jobs=1" (j 1 1.0) (j 64 0.05);
  Alcotest.(check string) "jobs=7 ≡ jobs=1" (j 1 1.0) (j 7 0.2)

let test_report_json_shape () =
  let r = report_of (Runner.Pool.run ~jobs:1 ~trials:5 trial_body) ~jobs:1 ~wall:0.1 in
  let s = Runner.Report.to_json r in
  let contains needle =
    let nl = String.length needle and sl = String.length s in
    let rec go i = i + nl <= sl && (String.sub s i nl = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun needle -> Alcotest.(check bool) (needle ^ " present") true (contains needle))
    [ "\"experiment\""; "\"wilson95\""; "\"metrics\""; "\"p95\""; "\"jobs\"" ];
  let lo, hi = Runner.Report.wilson r in
  Alcotest.(check bool) "wilson bounded" true (0. <= lo && lo <= hi && hi <= 1.)

let test_json_escaping () =
  Alcotest.(check string) "quote" {|"a\"b"|} (Util.Json.str {|a"b|});
  Alcotest.(check string) "newline" {|"a\nb"|} (Util.Json.str "a\nb");
  Alcotest.(check string) "nan is null" "null" (Util.Json.num Float.nan);
  Alcotest.(check string) "inf is null" "null" (Util.Json.num Float.infinity)

let () =
  Alcotest.run "runner"
    [
      ( "rng",
        [
          Alcotest.test_case "adjacent keys independent" `Quick test_adjacent_keys_independent;
          Alcotest.test_case "trial streams distinct" `Quick test_trial_rng_distinct;
        ] );
      ( "pool",
        [
          Alcotest.test_case "run job-count invariant" `Quick test_run_jobs_invariant;
          Alcotest.test_case "merged summaries identical" `Quick test_merged_summaries_identical;
          Alcotest.test_case "fold matches run" `Quick test_fold_matches_run;
          Alcotest.test_case "exception capture" `Quick test_exception_capture;
          Alcotest.test_case "zero trials" `Quick test_zero_trials;
        ] );
      ( "accum",
        [
          Alcotest.test_case "matches Util.Stats" `Quick test_accum_vs_stats;
          Alcotest.test_case "empty summary" `Quick test_accum_empty;
          Alcotest.test_case "reservoir determinism" `Quick test_reservoir_determinism;
        ] );
      ( "report",
        [
          Alcotest.test_case "oversubscribed jobs clamped + invariant" `Quick
            test_pool_oversubscription;
          Alcotest.test_case "timing-free JSON job-invariant" `Quick
            test_report_json_job_invariant;
          Alcotest.test_case "document shape" `Quick test_report_json_shape;
          Alcotest.test_case "json escaping" `Quick test_json_escaping;
        ] );
    ]
