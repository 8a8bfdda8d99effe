(* Ring-buffer event sink.  See sink.mli for the contract.

   Layout: one parallel-array ring (ints for kind/id/iter/ival/arg,
   floats for the wall timestamp), plus per-id side tables for counter
   totals and last-gauge values that are immune to ring wrap-around.
   [seq] is the lifetime event count; slot [seq mod capacity] is the
   next write position, so the retained window is always the last
   [min seq capacity] events.  Ids come from one process-wide table
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
  profile : bool;
  capacity : int;
  kinds : int array;
  ids : int array;
  iters : int array;
  ivals : int array;
  args : int array;
  fvals : float array;
  tss : float array;
  mnr : float array; (* Gc minor words at emission; ring-sized iff profile *)
  mutable seq : int;
  mutable totals : int array; (* by declared id; grown on demand *)
  mutable glast : float array;
  mutable gset : bool array;
}

let create ?(capacity = 32768) ?(profile = false) () =
  if capacity < 1 then invalid_arg "Trace.Sink.create: capacity < 1";
  let side = max 16 (Array.length (Atomic.get table).names) in
  {
    enabled = true;
    profile;
    capacity;
    kinds = Array.make capacity 0;
    ids = Array.make capacity 0;
    iters = Array.make capacity 0;
    ivals = Array.make capacity 0;
    args = Array.make capacity 0;
    fvals = Array.make capacity 0.;
    tss = Array.make capacity 0.;
    mnr = (if profile then Array.make capacity 0. else [| 0. |]);
    seq = 0;
    totals = Array.make side 0;
    glast = Array.make side 0.;
    gset = Array.make side false;
  }

let disabled =
  let empty = [| 0 |] in
  {
    enabled = false;
    profile = false;
    capacity = 1;
    kinds = empty;
    ids = empty;
    iters = empty;
    ivals = empty;
    args = empty;
    fvals = [| 0. |];
    tss = [| 0. |];
    mnr = [| 0. |];
    seq = 0;
    totals = [| 0 |];
    glast = [| 0. |];
    gset = [| false |];
  }

let is_enabled t = t.enabled
let profiled t = t.profile
let capacity t = t.capacity

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

(* The hot-path writer: array stores only, no allocation.  A profiled
   sink also stores [Gc.minor_words], which counts the young heap up to
   its current allocation pointer and allocates nothing itself (the
   float lands unboxed in the float array). *)
let[@inline] push t kind id iter ival arg fval =
  let s = t.seq mod t.capacity in
  t.kinds.(s) <- kind;
  t.ids.(s) <- id;
  t.iters.(s) <- iter;
  t.ivals.(s) <- ival;
  t.args.(s) <- arg;
  t.fvals.(s) <- fval;
  t.tss.(s) <- Unix.gettimeofday ();
  if t.profile then t.mnr.(s) <- Gc.minor_words ();
  t.seq <- t.seq + 1

let span_begin t ~id ~iter = if t.enabled then push t k_span_begin id iter 0 (-1) 0.
let span_end t ~id ~iter = if t.enabled then push t k_span_end id iter 0 (-1) 0.

(* Side-table updates. *)
let[@inline] add_total t id v =
  if id >= Array.length t.totals then grow_side t id;
  t.totals.(id) <- t.totals.(id) + v

let[@inline] set_last t id v =
  if id >= Array.length t.glast then grow_side t id;
  t.glast.(id) <- v;
  t.gset.(id) <- true

let count t ~id ?(iter = -1) ?(arg = -1) v =
  if t.enabled then begin
    add_total t id v;
    push t k_count id iter v arg 0.
  end

let gauge t ~id ?(iter = -1) v =
  if t.enabled then begin
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

let dropped t = retained_from t

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

let alloc_words t ~seq:sq =
  if t.profile && sq >= retained_from t && sq < t.seq then
    Some t.mnr.(sq mod t.capacity)
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
  Array.fill t.totals 0 (Array.length t.totals) 0;
  Array.fill t.gset 0 (Array.length t.gset) false
