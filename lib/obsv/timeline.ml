(* Event-stream -> per-iteration timeline.  See timeline.mli. *)

module Sink = Trace.Sink

type attributed = { phase : string; ev : Sink.event }

type iteration = {
  index : int;
  events : attributed list;
  counts : (string * int) list;
  b_star : float option;
  stalled : bool;
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
  sums : (string, int) Hashtbl.t;
}

let innermost_phase stack = match List.find_opt is_phase stack with Some p -> p | None -> ""

let finalize_iteration b index =
  let events = List.rev b.cur_events in
  let counts = Hashtbl.create 16 in
  let b_star = ref None in
  List.iter
    (fun { ev; _ } ->
      match ev with
      | Sink.Count { name; value; _ } ->
          Hashtbl.replace counts name (value + Option.value ~default:0 (Hashtbl.find_opt counts name))
      | Sink.Gauge { name = "progress.b_star"; value; _ } -> b_star := Some value
      | Sink.Gauge _ | Sink.Span_begin _ | Sink.Span_end _ -> ())
    events;
  let counts =
    Hashtbl.fold (fun k v l -> (k, v) :: l) counts []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  b.iters_rev <-
    {
      index;
      events;
      counts;
      b_star = !b_star;
      stalled = Option.value ~default:0 (List.assoc_opt "phi.stall" counts) > 0;
    }
    :: b.iters_rev;
  b.cur_iter <- None;
  b.cur_events <- []

let feed b ev =
  let seq =
    match ev with
    | Sink.Span_begin { seq; _ } | Sink.Span_end { seq; _ } | Sink.Count { seq; _ }
    | Sink.Gauge { seq; _ } ->
        seq
  in
  let attribute () =
    let a = { phase = innermost_phase b.stack; ev } in
    match b.cur_iter with
    | Some _ -> b.cur_events <- a :: b.cur_events
    | None -> b.setup_rev <- a :: b.setup_rev
  in
  match ev with
  | Sink.Count { name; value; _ } ->
      Hashtbl.replace b.sums name (value + Option.value ~default:0 (Hashtbl.find_opt b.sums name));
      attribute ()
  | Sink.Gauge _ -> attribute ()
  | Sink.Span_begin { name; iter; _ } ->
      if name = iter_span then begin
        (match b.cur_iter with
        | Some open_idx ->
            b.errs_rev <-
              Printf.sprintf "seq %d: iteration %d begins inside open iteration %d" seq iter
                open_idx
              :: b.errs_rev;
            finalize_iteration b open_idx
        | None -> ());
        b.cur_iter <- Some iter
      end
      else attribute ();
      b.stack <- name :: b.stack
  | Sink.Span_end { name; _ } ->
      (match b.stack with
      | top :: rest when top = name -> b.stack <- rest
      | stack ->
          b.errs_rev <-
            Printf.sprintf "seq %d: span_end %s does not match innermost open span%s" seq name
              (match stack with [] -> " (none open)" | top :: _ -> " " ^ top)
            :: b.errs_rev;
          (* Recover by unwinding through the name if it is open at all. *)
          if List.mem name stack then begin
            let rec unwind = function
              | top :: rest when top <> name -> unwind rest
              | _ :: rest -> rest
              | [] -> []
            in
            b.stack <- unwind stack
          end);
      if name = iter_span then
        match b.cur_iter with
        | Some idx -> finalize_iteration b idx
        | None ->
            b.errs_rev <-
              Printf.sprintf "seq %d: iteration end without an open iteration" seq :: b.errs_rev
      else attribute ()

let finish b sink =
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
  let first_seq = Sink.dropped sink in
  {
    setup = List.rev b.setup_rev;
    iterations = List.rev b.iters_rev;
    counter_sums;
    counter_totals = Sink.counter_totals sink;
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
    sums = Hashtbl.create 32;
  }

let of_sink sink =
  let b = fresh_builder () in
  Sink.iter sink (feed b);
  finish b sink

(* ---- accessors ---- *)

let count it name = Option.value ~default:0 (List.assoc_opt name it.counts)
