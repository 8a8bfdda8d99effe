(* BENCH_*.json trajectory tracking and regression detection.  See
   observatory.mli for the contract. *)

module Json = Util.Json

type entry = {
  run : int;
  benches : string list;
  exact : (string * float) list;
  timed : (string * float) list;
}

(* ---------- classification ---------- *)

let lowercase_contains ~needle hay =
  let hay = String.lowercase_ascii hay and n = String.length needle in
  let h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

(* Names are matched on the full flattened path, lowercased.  "jobs" is
   a knob, not a measurement; anything wall-clock-, rate- or
   allocation-flavoured is an execution artifact. *)
let classify name =
  if lowercase_contains ~needle:"jobs" name then `Ignored
  else if
    List.exists
      (fun needle -> lowercase_contains ~needle name)
      [ "wall"; "per_sec"; "per_trial"; "overhead"; "speedup"; "_ns"; "words"; "alloc"; "prof."; "_s."; "rss"; "heap" ]
    || (let n = String.length name in n >= 2 && String.sub name (n - 2) 2 = "_s")
  then `Timed
  else `Exact

(* ---------- flattening ---------- *)

let element_label fields i =
  let str k = match List.assoc_opt k fields with Some (Json.Str s) -> Some s | _ -> None in
  match (str "key", str "topology", str "transport", str "event") with
  | Some k, _, _, _ -> k
  | None, Some topo, Some tr, _ -> topo ^ ":" ^ tr
  | None, Some topo, None, _ -> topo
  | None, None, _, Some e -> e
  | None, None, _, None -> string_of_int i

let flatten ~label doc =
  let out = ref [] in
  let rec go prefix j =
    match j with
    | Json.Num _ | Json.Bool _ -> (
        match Json.to_float j with
        | Some f -> if classify prefix <> `Ignored then out := (prefix, f) :: !out
        | None -> ())
    | Json.Obj fields -> List.iter (fun (k, v) -> go (prefix ^ "." ^ k) v) fields
    | Json.Arr elems ->
        List.iteri
          (fun i e ->
            let lbl =
              match e with Json.Obj fields -> element_label fields i | _ -> string_of_int i
            in
            go (prefix ^ "[" ^ lbl ^ "]") e)
          elems
    | Json.Str _ | Json.Null -> ()
  in
  go label doc;
  List.sort (fun (a, _) (b, _) -> String.compare a b) !out

let entry_of_benches ~run benches =
  let all = List.concat_map (fun (label, doc) -> flatten ~label doc) benches in
  let all = List.sort (fun (a, _) (b, _) -> String.compare a b) all in
  {
    run;
    benches = List.sort String.compare (List.map fst benches);
    exact = List.filter (fun (n, _) -> classify n = `Exact) all;
    timed = List.filter (fun (n, _) -> classify n = `Timed) all;
  }

(* ---------- diff ---------- *)

type delta = {
  metric : string;
  before : float option;
  after : float option;
  timed : bool;
  regressed : bool;
}

(* A timed key's better direction, from its name alone: rates and
   speed-ups are higher-is-better, every other timed key (walls, ns,
   words, overheads, RSS) lower-is-better. *)
let higher_is_better name =
  lowercase_contains ~needle:"per_sec" name || lowercase_contains ~needle:"speedup" name

(* A [*_pct] key is a percentage that may sit near zero (an overhead
   measured as the difference of two close walls), where a ratio
   tolerance reads noise as a regression; it gets an absolute tolerance
   in percentage points instead. *)
let pct_points = 30.

let is_pct name = String.ends_with ~suffix:"_pct" name

(* [before] -> [after] regresses only when it moves the worse way: for a
   [*_pct] key by more than [pct_points] points, for any other by a
   magnitude ratio beyond [1 + tolerance], or across zero. *)
let timed_regressed ~tolerance ~higher ~pct before after =
  let worse = if higher then after < before else after > before in
  worse
  &&
  if pct then Float.abs (after -. before) > pct_points
  else
    (before < 0.) <> (after < 0.)
    ||
    let a = Float.abs before and b = Float.abs after in
    Float.max a b /. Float.max (Float.min a b) 1e-12 > 1. +. tolerance

let diff ?(tolerance = 1.5) ~prev cur =
  let diff_side timed before after =
    let names =
      List.sort_uniq String.compare (List.map fst before @ List.map fst after)
    in
    List.map
      (fun metric ->
        let b = List.assoc_opt metric before and a = List.assoc_opt metric after in
        let regressed =
          match (b, a) with
          | Some _, None -> true (* lost coverage *)
          | None, Some _ -> false (* new coverage *)
          | None, None -> false
          | Some b, Some a ->
              if timed then
                timed_regressed ~tolerance ~higher:(higher_is_better metric)
                  ~pct:(is_pct metric) b a
              else a <> b
        in
        { metric; before = b; after = a; timed; regressed })
      names
  in
  diff_side false prev.exact cur.exact @ diff_side true prev.timed cur.timed

let regressions deltas = List.filter (fun d -> d.regressed) deltas

(* ---------- history (JSONL) ---------- *)

let metrics_obj l =
  "{"
  ^ String.concat "," (List.map (fun (k, v) -> Json.str k ^ ":" ^ Json.num v) l)
  ^ "}"

let entry_to_jsonl e =
  Printf.sprintf "{\"run\":%d,\"benches\":[%s],\"exact\":%s,\"timed\":%s}" e.run
    (String.concat "," (List.map Json.str e.benches))
    (metrics_obj e.exact) (metrics_obj e.timed)

let entry_of_json j =
  let metrics k =
    match Json.member k j with
    | Some (Json.Obj fields) ->
        List.filter_map (fun (n, v) -> Option.map (fun f -> (n, f)) (Json.to_float v)) fields
    | _ -> []
  in
  match Option.bind (Json.member "run" j) Json.to_float with
  | None -> None
  | Some run ->
      Some
        {
          run = int_of_float run;
          benches =
            (match Json.member "benches" j with
            | Some arr -> List.filter_map Json.to_string (Json.to_list arr)
            | None -> []);
          exact = metrics "exact";
          timed = metrics "timed";
        }

let load_history ~path =
  if not (Sys.file_exists path) then []
  else begin
    let ic = open_in path in
    let entries = ref [] in
    (try
       while true do
         let line = input_line ic in
         if String.length line > 0 then
           match Option.bind (Json.parse_opt line) entry_of_json with
           | Some e -> entries := e :: !entries
           | None -> ()
       done
     with End_of_file -> ());
    close_in ic;
    List.rev !entries
  end

(* Rewrite the whole file from entries — used by rotation.  Writing to a
   temp file and renaming keeps a crash from truncating the history. *)
let write_history ~path entries =
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun e ->
          output_string oc (entry_to_jsonl e);
          output_char oc '\n')
        entries);
  Sys.rename tmp path

let append_history ?max_entries ~path e =
  (match max_entries with
  | Some cap when cap < 1 -> invalid_arg "Observatory.append_history: max_entries < 1"
  | _ -> ());
  match max_entries with
  | Some cap ->
      (* Cap-and-rotate: keep the newest [cap] entries including the one
         being appended.  The tail keeps its original [run] numbers, so
         run identity survives rotation (the next run is numbered from
         the last entry, not from the line count). *)
      let hist = load_history ~path @ [ e ] in
      let excess = List.length hist - cap in
      let rec drop n l = if n <= 0 then l else match l with [] -> [] | _ :: t -> drop (n - 1) t in
      write_history ~path (drop excess hist)
  | None ->
      let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () ->
          output_string oc (entry_to_jsonl e);
          output_char oc '\n')

(* ---------- rendering ---------- *)

let timing_marker = "<!-- timing below: informational, not byte-stable -->"

let fnum f =
  (* Trim the fixed 6-decimal rendering for readability; exact metrics
     still render deterministically (pure function of the value). *)
  let s = Printf.sprintf "%.6f" f in
  let n = String.length s in
  let rec last i = if i > 0 && s.[i] = '0' then last (i - 1) else i in
  let i = last (n - 1) in
  let i = if s.[i] = '.' then i - 1 else i in
  String.sub s 0 (i + 1)

let opt_num = function None -> "—" | Some f -> fnum f

let render_markdown ~prev ~cur deltas =
  let b = Buffer.create 4096 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b s; Buffer.add_char b '\n') fmt in
  let exact_deltas = List.filter (fun d -> not d.timed) deltas in
  let timed_deltas = List.filter (fun d -> d.timed) deltas in
  let exact_reg = regressions exact_deltas and timed_reg = regressions timed_deltas in
  line "# OBSERVATORY — bench regression report";
  line "";
  line "Run %d over benches: %s." cur.run (String.concat ", " cur.benches);
  (match prev with
  | None -> line "No previous entry — baseline recorded, nothing to compare."
  | Some p ->
      line "Compared against run %d: %d exact metric(s), %d timed metric(s)." p.run
        (List.length exact_deltas) (List.length timed_deltas));
  line "";
  line "## Exact regressions: %d" (List.length exact_reg);
  if exact_reg <> [] then begin
    line "";
    line "| metric | previous | current |";
    line "|---|---|---|";
    List.iter
      (fun d -> line "| `%s` | %s | %s |" d.metric (opt_num d.before) (opt_num d.after))
      exact_reg
  end;
  line "";
  line "## Exact metrics";
  line "";
  line "| metric | value |";
  line "|---|---|";
  List.iter (fun (n, v) -> line "| `%s` | %s |" n (fnum v)) cur.exact;
  line "";
  line "%s" timing_marker;
  line "";
  line "## Timed regressions beyond tolerance: %d" (List.length timed_reg);
  if timed_reg <> [] then begin
    line "";
    line "| metric | previous | current |";
    line "|---|---|---|";
    List.iter
      (fun d -> line "| `%s` | %s | %s |" d.metric (opt_num d.before) (opt_num d.after))
      timed_reg
  end;
  line "";
  line "## Timed metrics (informational)";
  line "";
  line "| metric | previous | current |";
  line "|---|---|---|";
  let prev_timed = match prev with Some p -> p.timed | None -> [] in
  List.iter
    (fun (n, v) ->
      line "| `%s` | %s | %s |" n (opt_num (List.assoc_opt n prev_timed)) (fnum v))
    cur.timed;
  Buffer.contents b

let exact_section doc =
  let marker = timing_marker in
  let dn = String.length doc and mn = String.length marker in
  let rec find i =
    if i + mn > dn then dn else if String.sub doc i mn = marker then i else find (i + 1)
  in
  String.sub doc 0 (find 0)
