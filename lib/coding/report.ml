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
  Format.fprintf ppf "%s: K=%d tau=%d seeds=%s%s%s" p.Params.name p.Params.k p.Params.tau
    (match p.Params.seed_mode with Params.Crs -> "CRS" | Params.Exchange -> "exchange")
    (if p.Params.flag_passing then "" else " [no flag passing]")
    (if p.Params.rewind then "" else " [no rewind]")
