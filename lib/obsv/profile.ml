(* Span pairs -> per-phase wall/alloc rows.  See profile.mli. *)

type row = {
  name : string;
  count : int;
  wall_s : float;
  minor_words : float;
}

type acc = {
  mutable n : int;
  mutable wall : float;
  mutable minor : float;
}

let of_sink sink =
  let open_spans = ref [] in
  (* name -> (begin seq, begin ts) stack entries; rows keyed by name *)
  let rows : (string, acc) Hashtbl.t = Hashtbl.create 16 in
  let alloc sq = Option.value ~default:0. (Trace.Sink.alloc_words sink ~seq:sq) in
  Trace.Sink.iter sink (fun ev ->
      match ev with
      | Trace.Sink.Span_begin { name; seq; ts; _ } -> open_spans := (name, seq, ts) :: !open_spans
      | Trace.Sink.Span_end { name; seq; ts; _ } -> (
          match !open_spans with
          | (top, bseq, bts) :: rest when top = name ->
              open_spans := rest;
              let a =
                match Hashtbl.find_opt rows name with
                | Some a -> a
                | None ->
                    let a = { n = 0; wall = 0.; minor = 0. } in
                    Hashtbl.add rows name a;
                    a
              in
              a.n <- a.n + 1;
              a.wall <- a.wall +. Float.max 0. (ts -. bts);
              a.minor <- a.minor +. Float.max 0. (alloc seq -. alloc bseq)
          | _ -> (* unmatched end: ring truncation ate the begin *) ())
      | _ -> ());
  Hashtbl.fold
    (fun name a l -> { name; count = a.n; wall_s = a.wall; minor_words = a.minor } :: l)
    rows []
  |> List.sort (fun a b -> String.compare a.name b.name)

let metrics rows =
  List.concat_map
    (fun r ->
      [
        (Printf.sprintf "prof.%s.count" r.name, float_of_int r.count);
        (Printf.sprintf "prof.%s.minor_words" r.name, r.minor_words);
        (Printf.sprintf "prof.%s.wall_s" r.name, r.wall_s);
      ])
    rows

let pp fmt rows =
  let total = List.fold_left (fun acc r -> acc +. r.wall_s) 0. rows in
  Format.fprintf fmt "  %-26s %6s %10s %6s %14s@." "span" "count" "wall" "%" "minor words";
  List.iter
    (fun r ->
      Format.fprintf fmt "  %-26s %6d %9.4fs %5.1f%% %14.0f@." r.name r.count r.wall_s
        (if total > 0. then 100. *. r.wall_s /. total else 0.)
        r.minor_words)
    (List.sort (fun a b -> compare b.wall_s a.wall_s) rows)
