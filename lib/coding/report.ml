let verdict (r : Scheme.result) =
  if r.Scheme.success then "OK"
  else begin
    let wrong = ref 0 in
    Array.iteri (fun i o -> if o <> r.Scheme.reference.(i) then incr wrong) r.Scheme.outputs;
    Printf.sprintf "FAILED (%d parties wrong)" !wrong
  end

let pp_summary ppf (r : Scheme.result) =
  Format.fprintf ppf "%s cc=%d blowup=%.1fx corruptions=%d (%.4f%%) iters=%d/%d rework=%d"
    (verdict r) r.Scheme.cc r.Scheme.rate_blowup r.Scheme.corruptions
    (100. *. r.Scheme.noise_fraction)
    r.Scheme.iterations_run r.Scheme.chunks_total r.Scheme.chunks_rewound

let pp_trace ppf trace =
  let max_sum = List.fold_left (fun acc st -> max acc st.Scheme.sum_g) 1 trace in
  Format.fprintf ppf "%5s %5s %5s %5s %6s  %s@." "iter" "G*" "H*" "B*" "in-MP" "progress";
  List.iter
    (fun st ->
      let width = 28 in
      let filled = st.Scheme.sum_g * width / max_sum in
      Format.fprintf ppf "%5d %5d %5d %5d %6d  %s@." st.Scheme.iteration st.Scheme.g_star
        st.Scheme.h_star st.Scheme.b_star st.Scheme.links_in_mp
        (String.init width (fun i -> if i < filled then '#' else '.')))
    trace

let pp_params ppf (p : Params.t) =
  Format.fprintf ppf "%s: K=%d tau=%d seeds=%s%s" p.Params.name p.Params.k p.Params.tau
    (match p.Params.seed_mode with Params.Crs -> "CRS" | Params.Exchange -> "exchange")
    (if p.Params.flag_passing then "" else " [no flag passing]")

let metrics ~k ~m outcome =
  let open Metrics.Registry in
  let count name v = (name, Exact, Counter v) and gauge name v = (name, Exact, Gauge v) in
  let tally label =
    count ("scheme.outcome." ^ label) (Bool.to_int (Faults.Outcome.label outcome = label))
  in
  (* A completed run's diagnosis is the all-zero one. *)
  let d =
    Option.value (Faults.Outcome.diagnosis outcome) ~default:(Faults.Outcome.fresh_diagnosis ())
  in
  let books =
    [
      count "net.stalled" d.Faults.Outcome.stalled_slots;
      count "net.injected" d.Faults.Outcome.injected;
    ]
  in
  let run (r : Scheme.result) =
    [
      count "net.cc" r.Scheme.cc;
      count "net.corruptions" r.Scheme.corruptions;
      gauge "net.noise_rate" r.Scheme.noise_fraction;
      count "live.rounds" r.Scheme.rounds;
      count "scheme.iterations" r.Scheme.iterations_run;
      count "scheme.mp_truncations" r.Scheme.mp_truncations;
      count "scheme.rewinds" r.Scheme.rewinds;
    ]
    @
    match List.rev r.Scheme.trace with
    | [] -> []
    | last :: _ ->
        [
          count "scheme.phi_stalls" (Potential.stalls ~k ~m r.Scheme.trace);
          gauge "scheme.phi" (Potential.phi Potential.default_constants ~k ~m last);
        ]
  in
  let series =
    match Faults.Outcome.result outcome with
    | Some r -> run r
    | None -> [ count "scheme.iterations" d.Faults.Outcome.iterations_run ]
  in
  List.sort
    (fun (a, _, _) (b, _, _) -> String.compare a b)
    (List.map tally [ "completed"; "degraded"; "aborted" ] @ books @ series)
