(* Event-stream -> per-iteration timeline.  See timeline.mli. *)

module Json = Util.Json

type kind = Span_begin | Span_end | Count | Gauge

type ev = {
  seq : int;
  kind : kind;
  name : string;
  iter : int;
  arg : int;
  ival : int;
  fval : float;
  shard : int; (* emitting shard under sharded capture; -1 = leader/unknown *)
}

type attributed = { phase : string; ev : ev }

type iteration = {
  index : int;
  events : attributed list;
  counts : (string * int) list;
  phi : float option;
  g_star : float option;
  b_star : float option;
  stalled : bool;
  rewind_requests : int;
  rewind_depth : int option;
}

type t = {
  setup : attributed list;
  iterations : iteration list;
  counter_sums : (string * int) list;
  counter_totals : (string * int) list;
  first_seq : int;
  truncated : bool;
  errors : string list;
}

let iter_span = "scheme.iteration"
let is_phase name = String.length name > 6 && String.sub name 0 6 = "phase."

(* Mutable build state for one pass over the event stream. *)
type builder = {
  mutable stack : string list;  (* open spans, innermost first *)
  mutable cur_iter : int option;  (* open scheme.iteration index *)
  mutable cur_events : attributed list;  (* reversed *)
  mutable setup_rev : attributed list;
  mutable iters_rev : iteration list;
  mutable errs_rev : string list;
  mutable first_seq : int;
  sums : (string, int) Hashtbl.t;
}

let innermost_phase stack = match List.find_opt is_phase stack with Some p -> p | None -> ""

let finalize_iteration b index =
  let events = List.rev b.cur_events in
  let counts = Hashtbl.create 16 in
  let phi = ref None and g_star = ref None and b_star = ref None in
  let depth = ref None in
  List.iter
    (fun { ev; _ } ->
      match ev.kind with
      | Count ->
          Hashtbl.replace counts ev.name (ev.ival + Option.value ~default:0 (Hashtbl.find_opt counts ev.name))
      | Gauge -> (
          match ev.name with
          | "phi" -> phi := Some ev.fval
          | "progress.g_star" -> g_star := Some ev.fval
          | "progress.b_star" -> b_star := Some ev.fval
          | "rewind.depth" ->
              (* Sharded captures emit one depth gauge per shard that
                 rewound; the iteration's depth is their max (equals the
                 single gauge of a single-sink stream). *)
              depth := Some (max (Option.value ~default:0 !depth) (int_of_float ev.fval))
          | _ -> ())
      | Span_begin | Span_end -> ())
    events;
  let counts =
    Hashtbl.fold (fun k v l -> (k, v) :: l) counts []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  let count name = Option.value ~default:0 (List.assoc_opt name counts) in
  b.iters_rev <-
    {
      index;
      events;
      counts;
      phi = !phi;
      g_star = !g_star;
      b_star = !b_star;
      stalled = count "phi.stall" > 0;
      rewind_requests = count "rewind.requests";
      rewind_depth = !depth;
    }
    :: b.iters_rev;
  b.cur_iter <- None;
  b.cur_events <- []

let feed b ev =
  if b.first_seq < 0 then b.first_seq <- ev.seq;
  let attribute () =
    let a = { phase = innermost_phase b.stack; ev } in
    match b.cur_iter with
    | Some _ -> b.cur_events <- a :: b.cur_events
    | None -> b.setup_rev <- a :: b.setup_rev
  in
  (match ev.kind with
  | Count ->
      Hashtbl.replace b.sums ev.name
        (ev.ival + Option.value ~default:0 (Hashtbl.find_opt b.sums ev.name));
      attribute ()
  | Gauge -> attribute ()
  | Span_begin ->
      if ev.name = iter_span then begin
        (match b.cur_iter with
        | Some open_idx ->
            b.errs_rev <-
              Printf.sprintf "seq %d: iteration %d begins inside open iteration %d" ev.seq
                ev.iter open_idx
              :: b.errs_rev;
            finalize_iteration b open_idx
        | None -> ());
        b.cur_iter <- Some ev.iter
      end
      else attribute ();
      b.stack <- ev.name :: b.stack
  | Span_end -> (
      (match b.stack with
      | top :: rest when top = ev.name -> b.stack <- rest
      | stack ->
          b.errs_rev <-
            Printf.sprintf "seq %d: span_end %s does not match innermost open span%s" ev.seq
              ev.name
              (match stack with [] -> " (none open)" | top :: _ -> " " ^ top)
            :: b.errs_rev;
          (* Recover by unwinding through the name if it is open at all. *)
          if List.mem ev.name stack then begin
            let rec unwind = function
              | top :: rest when top <> ev.name -> unwind rest
              | _ :: rest -> rest
              | [] -> []
            in
            b.stack <- unwind stack
          end);
      if ev.name = iter_span then
        match b.cur_iter with
        | Some idx -> finalize_iteration b idx
        | None ->
            b.errs_rev <-
              Printf.sprintf "seq %d: iteration end without an open iteration" ev.seq
              :: b.errs_rev
      else attribute ())
  )

let finish b ~counter_totals =
  (* An iteration span left open (truncated tail / aborted run) still
     yields its partial iteration. *)
  (match b.cur_iter with
  | Some idx ->
      b.errs_rev <- Printf.sprintf "iteration %d left open at end of trace" idx :: b.errs_rev;
      finalize_iteration b idx
  | None -> ());
  List.iter
    (fun name ->
      if name <> iter_span then
        b.errs_rev <- Printf.sprintf "span %s left open at end of trace" name :: b.errs_rev)
    b.stack;
  let counter_sums =
    Hashtbl.fold (fun k v l -> if v <> 0 then (k, v) :: l else l) b.sums []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  let first_seq = max 0 b.first_seq in
  {
    setup = List.rev b.setup_rev;
    iterations = List.rev b.iters_rev;
    counter_sums;
    counter_totals =
      (match counter_totals with Some tots -> tots | None -> counter_sums);
    first_seq;
    truncated = first_seq > 0;
    errors = List.rev b.errs_rev;
  }

let fresh_builder () =
  {
    stack = [];
    cur_iter = None;
    cur_events = [];
    setup_rev = [];
    iters_rev = [];
    errs_rev = [];
    first_seq = -1;
    sums = Hashtbl.create 32;
  }

let ev_of_sink_event ?(shard = -1) = function
  | Trace.Sink.Span_begin { name; iter; seq; _ } ->
      { seq; kind = Span_begin; name; iter; arg = -1; ival = 0; fval = 0.; shard }
  | Trace.Sink.Span_end { name; iter; seq; _ } ->
      { seq; kind = Span_end; name; iter; arg = -1; ival = 0; fval = 0.; shard }
  | Trace.Sink.Count { name; iter; arg; value; seq; _ } ->
      { seq; kind = Count; name; iter; arg; ival = value; fval = 0.; shard }
  | Trace.Sink.Gauge { name; iter; value; seq; _ } ->
      { seq; kind = Gauge; name; iter; arg = -1; ival = 0; fval = value; shard }

let of_sharded sh =
  let b = fresh_builder () in
  List.iter
    (fun e -> feed b (ev_of_sink_event ~shard:e.Trace.Merge.shard e.Trace.Merge.ev))
    (Trace.Merge.entries sh);
  let tl = finish b ~counter_totals:(Some (Trace.Sharded.counter_totals sh)) in
  { tl with truncated = Trace.Sharded.dropped sh > 0 }

let of_sink sink =
  let b = fresh_builder () in
  Trace.Sink.iter sink (fun e -> feed b (ev_of_sink_event e));
  let tl = finish b ~counter_totals:(Some (Trace.Sink.counter_totals sink)) in
  { tl with truncated = Trace.Sink.dropped sink > 0 }

(* ---- JSONL re-parse ---- *)

let ev_of_json j =
  let str k = Option.bind (Json.member k j) Json.to_string in
  let num k = Option.bind (Json.member k j) Json.to_float in
  let int_of k ~default = match num k with Some f -> int_of_float f | None -> default in
  match (str "kind", str "name", num "seq") with
  | Some kind, Some name, Some seq -> (
      let seq = int_of_float seq in
      let iter = int_of "iter" ~default:(-1) in
      match kind with
      | "span_begin" ->
          Some { seq; kind = Span_begin; name; iter; arg = -1; ival = 0; fval = 0.; shard = -1 }
      | "span_end" ->
          Some { seq; kind = Span_end; name; iter; arg = -1; ival = 0; fval = 0.; shard = -1 }
      | "count" ->
          Some
            {
              seq;
              kind = Count;
              name;
              iter;
              arg = int_of "arg" ~default:(-1);
              ival = int_of "value" ~default:0;
              fval = 0.;
              shard = -1;
            }
      | "gauge" ->
          Some
            {
              seq;
              kind = Gauge;
              name;
              iter;
              arg = -1;
              ival = 0;
              fval = Option.value ~default:Float.nan (num "value");
              shard = -1;
            }
      | _ -> None)
  | _ -> None

let of_jsonl text =
  let b = fresh_builder () in
  let lineno = ref 0 in
  String.split_on_char '\n' text
  |> List.iter (fun line ->
         incr lineno;
         if String.length line > 0 then
           match Json.parse_opt line with
           | None -> b.errs_rev <- Printf.sprintf "line %d: unparseable JSON" !lineno :: b.errs_rev
           | Some j -> (
               match ev_of_json j with
               | Some ev -> feed b ev
               | None ->
                   b.errs_rev <-
                     Printf.sprintf "line %d: not a trace event" !lineno :: b.errs_rev));
  finish b ~counter_totals:None

(* ---- accessors ---- *)

let count it name = Option.value ~default:0 (List.assoc_opt name it.counts)
let total t name = Option.value ~default:0 (List.assoc_opt name t.counter_totals)

let phi_trajectory t =
  List.filter_map (fun it -> Option.map (fun p -> (it.index, p)) it.phi) t.iterations
