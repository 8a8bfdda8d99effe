(* Ring-buffer event sink.  See sink.mli for the contract.

   Layout: one parallel-array ring (ints for kind/id/iter/ival/arg,
   floats for the wall timestamp), plus per-id side tables for counter
   totals and last-gauge values that are immune to ring wrap-around.
   [seq] is the lifetime event count; slot [seq mod capacity] is the
   next write position, so the retained window is always the last
   [min seq capacity] events.  The ring arrays start at [initial]
   slots and double up to [capacity] as events arrive (see
   [grow_ring]), so a per-run ring that records few events never pays
   for a full one.  Ids come from one process-wide table
   ([declare]); every sink indexes its side tables by them. *)

module Names = Map.Make (String)

(* The declared names.  Writers take [declare_lock] and publish a new
   immutable snapshot; readers only load the current one. *)
type table = { ids : int Names.t; names : string array }

let table = Atomic.make { ids = Names.empty; names = [||] }
let declare_lock = Mutex.create ()

let declare nm =
  match Names.find_opt nm (Atomic.get table).ids with
  | Some id -> id
  | None ->
      Mutex.protect declare_lock (fun () ->
          let tb = Atomic.get table in
          match Names.find_opt nm tb.ids with
          | Some id -> id
          | None ->
              let id = Array.length tb.names in
              Atomic.set table
                { ids = Names.add nm id tb.ids; names = Array.append tb.names [| nm |] };
              id)

let name id =
  let names = (Atomic.get table).names in
  if id >= 0 && id < Array.length names then names.(id) else ""

let id_of nm = Names.find_opt nm (Atomic.get table).ids

let k_span_begin = 0
let k_span_end = 1
let k_count = 2
let k_gauge = 3

type t = {
  enabled : bool;
  mutable on : bool; (* enabled && not muted — the hot-path branch *)
  profile : bool;
  capacity : int;
  mutable kinds : int array; (* the ring arrays, [initial] long at first *)
  mutable ids : int array;
  mutable iters : int array;
  mutable ivals : int array;
  mutable args : int array;
  mutable fvals : float array;
  mutable tss : float array;
  mutable ticks : int array; (* merge position stamp, see [set_tick] *)
  mutable mnr : float array; (* Gc minor words at emission; ring-sized iff profile *)
  mutable mjr : float array; (* Gc major words at emission *)
  mutable seq : int;
  mutable tick : int;
  mutable pre_dropped : int; (* upstream losses noted by a merge pass *)
  mutable totals : int array; (* by declared id; grown on demand *)
  mutable glast : float array;
  mutable gset : bool array;
}

let create ?(capacity = 32768) ?initial ?(profile = false) () =
  if capacity < 1 then invalid_arg "Trace.Sink.create: capacity < 1";
  let side = max 16 (Array.length (Atomic.get table).names) in
  let slots = match initial with Some k -> max 1 (min capacity k) | None -> capacity in
  {
    enabled = true;
    on = true;
    profile;
    capacity;
    kinds = Array.make slots 0;
    ids = Array.make slots 0;
    iters = Array.make slots 0;
    ivals = Array.make slots 0;
    args = Array.make slots 0;
    fvals = Array.make slots 0.;
    tss = Array.make slots 0.;
    ticks = Array.make slots 0;
    mnr = (if profile then Array.make slots 0. else [| 0. |]);
    mjr = (if profile then Array.make slots 0. else [| 0. |]);
    seq = 0;
    tick = 0;
    pre_dropped = 0;
    totals = Array.make side 0;
    glast = Array.make side 0.;
    gset = Array.make side false;
  }

let disabled =
  let empty = [| 0 |] in
  {
    enabled = false;
    on = false;
    profile = false;
    capacity = 1;
    kinds = empty;
    ids = empty;
    iters = empty;
    ivals = empty;
    args = empty;
    fvals = [| 0. |];
    tss = [| 0. |];
    ticks = empty;
    mnr = [| 0. |];
    mjr = [| 0. |];
    seq = 0;
    tick = 0;
    pre_dropped = 0;
    totals = [| 0 |];
    glast = [| 0. |];
    gset = [| false |];
  }

let is_enabled t = t.enabled
let profiled t = t.profile
let capacity t = t.capacity
let set_muted t m = t.on <- t.enabled && not m
let muted t = t.enabled && not t.on
let set_tick t k = if t.enabled then t.tick <- k
let tick_at t sq = t.ticks.(sq mod t.capacity)

(* [a] copied into the front of a fresh [len]-long array of [fill]. *)
let extend a len fill =
  let a' = Array.make len fill in
  Array.blit a 0 a' 0 (Array.length a);
  a'

(* Make room for [id] in the side tables: a declaration made after the
   sink was created outran them. *)
let grow_side t id =
  let cap = max (2 * Array.length t.totals) (id + 1) in
  t.totals <- extend t.totals cap 0;
  t.glast <- extend t.glast cap 0.;
  t.gset <- extend t.gset cap false

(* Double the ring arrays, up to [capacity].  Only a ring shorter than
   [capacity] grows, and it cannot have wrapped yet: every event so far
   sits at slot [seq], so the copy keeps each one in place. *)
let grow_ring t =
  let len = min t.capacity (2 * Array.length t.kinds) in
  t.kinds <- extend t.kinds len 0;
  t.ids <- extend t.ids len 0;
  t.iters <- extend t.iters len 0;
  t.ivals <- extend t.ivals len 0;
  t.args <- extend t.args len 0;
  t.fvals <- extend t.fvals len 0.;
  t.tss <- extend t.tss len 0.;
  t.ticks <- extend t.ticks len 0;
  if t.profile then begin
    t.mnr <- extend t.mnr len 0.;
    t.mjr <- extend t.mjr len 0.
  end

(* Count one more event, and grow the ring once it is full but still
   short of [capacity].  Last in the writers, so nothing is live across
   the rare call. *)
let[@inline] advance t =
  t.seq <- t.seq + 1;
  if t.seq = Array.length t.kinds && t.seq < t.capacity then grow_ring t

(* The hot-path writer: array stores only, no allocation once the ring
   has grown to its working size (the optional profile stores cost one
   [Gc.counters] call, profiled sinks only). *)
let[@inline] push t kind id iter ival arg fval =
  let s = t.seq mod t.capacity in
  t.kinds.(s) <- kind;
  t.ids.(s) <- id;
  t.iters.(s) <- iter;
  t.ivals.(s) <- ival;
  t.args.(s) <- arg;
  t.fvals.(s) <- fval;
  t.tss.(s) <- Unix.gettimeofday ();
  t.ticks.(s) <- t.tick;
  if t.profile then begin
    let mn, _, mj = Gc.counters () in
    t.mnr.(s) <- mn;
    t.mjr.(s) <- mj
  end;
  advance t

let span_begin t ~id ~iter = if t.on then push t k_span_begin id iter 0 (-1) 0.
let span_end t ~id ~iter = if t.on then push t k_span_end id iter 0 (-1) 0.

(* Side-table updates, shared by the probes and [replay]. *)
let[@inline] add_total t id v =
  if id >= Array.length t.totals then grow_side t id;
  t.totals.(id) <- t.totals.(id) + v

let[@inline] set_last t id v =
  if id >= Array.length t.glast then grow_side t id;
  t.glast.(id) <- v;
  t.gset.(id) <- true

let count t ~id ?(iter = -1) ?(arg = -1) v =
  if t.on then begin
    add_total t id v;
    push t k_count id iter v arg 0.
  end

let gauge t ~id ?(iter = -1) v =
  if t.on then begin
    set_last t id v;
    push t k_gauge id iter 0 (-1) v
  end

type event =
  | Span_begin of { name : string; iter : int; seq : int; ts : float }
  | Span_end of { name : string; iter : int; seq : int; ts : float }
  | Count of { name : string; iter : int; arg : int; value : int; seq : int; ts : float }
  | Gauge of { name : string; iter : int; value : float; seq : int; ts : float }

let seq t = t.seq

(* First seq still retained in the ring (ring wrap-around only). *)
let retained_from t = max 0 (t.seq - t.capacity)

let dropped t = retained_from t + t.pre_dropped

let note_dropped t k = if t.enabled && k > 0 then t.pre_dropped <- t.pre_dropped + k

let event_at t sq =
  let s = sq mod t.capacity in
  let nm = name t.ids.(s) in
  let iter = t.iters.(s) and ts = t.tss.(s) in
  match t.kinds.(s) with
  | 0 -> Span_begin { name = nm; iter; seq = sq; ts }
  | 1 -> Span_end { name = nm; iter; seq = sq; ts }
  | 2 -> Count { name = nm; iter; arg = t.args.(s); value = t.ivals.(s); seq = sq; ts }
  | _ -> Gauge { name = nm; iter; value = t.fvals.(s); seq = sq; ts }

let iter t f =
  for sq = retained_from t to t.seq - 1 do
    f (event_at t sq)
  done

let events t =
  let lo = retained_from t in
  List.init (t.seq - lo) (fun i -> event_at t (lo + i))

(* Re-emit an already-decoded event, preserving its wall timestamp (and
   optionally its Gc words) instead of stamping fresh ones.  This is how
   a merge pass rebuilds one ordered stream out of per-shard rings: the
   destination assigns fresh consecutive seq numbers — merge order is
   the new truth — while side tables (counter totals, last gauges) are
   maintained exactly as if the event had been emitted here. *)
let replay t ?alloc ev =
  if t.on then begin
    let id, kind, iter, ival, arg, fval, ts =
      match ev with
      | Span_begin { name; iter; ts; _ } -> (declare name, k_span_begin, iter, 0, -1, 0., ts)
      | Span_end { name; iter; ts; _ } -> (declare name, k_span_end, iter, 0, -1, 0., ts)
      | Count { name; iter; arg; value; ts; _ } ->
          let id = declare name in
          add_total t id value;
          (id, k_count, iter, value, arg, 0., ts)
      | Gauge { name; iter; value; ts; _ } ->
          let id = declare name in
          set_last t id value;
          (id, k_gauge, iter, 0, -1, value, ts)
    in
    let s = t.seq mod t.capacity in
    t.kinds.(s) <- kind;
    t.ids.(s) <- id;
    t.iters.(s) <- iter;
    t.ivals.(s) <- ival;
    t.args.(s) <- arg;
    t.fvals.(s) <- fval;
    t.tss.(s) <- ts;
    t.ticks.(s) <- t.tick;
    if t.profile then begin
      let mn, mj = match alloc with Some a -> a | None -> (0., 0.) in
      t.mnr.(s) <- mn;
      t.mjr.(s) <- mj
    end;
    advance t
  end

let alloc_words t ~seq:sq =
  if t.profile && sq >= retained_from t && sq < t.seq then
    let s = sq mod t.capacity in
    Some (t.mnr.(s), t.mjr.(s))
  else None

(* Side-table lookups by name: 0 / absent for names never declared or
   declared after the sink last grew. *)
let side_id t nm =
  match id_of nm with Some id when id < Array.length t.totals -> Some id | _ -> None

let counter_total t nm = match side_id t nm with Some id -> t.totals.(id) | None -> 0

(* Every side-table entry [keep] selects, as (name, value), sorted by name. *)
let side_list t keep value =
  let acc = ref [] in
  for id = 0 to Array.length t.totals - 1 do
    if keep id then acc := (name id, value id) :: !acc
  done;
  List.sort (fun (a, _) (b, _) -> String.compare a b) !acc

let counter_totals t = side_list t (fun id -> t.totals.(id) <> 0) (fun id -> t.totals.(id))

let gauge_last t nm =
  match side_id t nm with Some id when t.gset.(id) -> Some t.glast.(id) | _ -> None

let gauge_lasts t = side_list t (fun id -> t.gset.(id)) (fun id -> t.glast.(id))

let reset t =
  t.seq <- 0;
  t.tick <- 0;
  t.pre_dropped <- 0;
  t.on <- t.enabled;
  Array.fill t.totals 0 (Array.length t.totals) 0;
  Array.fill t.gset 0 (Array.length t.gset) false
