(* Metric registry.  See registry.mli for the contract.

   Layout: a mutex-protected name table (registration is setup-time
   only) holding one cell per metric; probe handles carry the cell
   directly plus an [on] flag so the disabled path is one branch and
   the enabled path is one atomic op, no table lookups. *)

type klass = Exact | Timed

type counter = { c_on : bool; c_cell : int Atomic.t }
type gauge = { g_on : bool; g_cell : float Atomic.t }
type hist = { h_on : bool; h_hist : Hist.t }

type metric = M_counter of int Atomic.t | M_gauge of float Atomic.t | M_hist of Hist.t

type t = {
  enabled : bool;
  lock : Mutex.t;
  tbl : (string, klass * metric) Hashtbl.t;
}

let create () = { enabled = true; lock = Mutex.create (); tbl = Hashtbl.create 64 }
let disabled = { enabled = false; lock = Mutex.create (); tbl = Hashtbl.create 1 }
let is_enabled t = t.enabled

let off_counter = { c_on = false; c_cell = Atomic.make 0 }
let off_gauge = { g_on = false; g_cell = Atomic.make 0. }
let off_hist = { h_on = false; h_hist = Hist.create () }

let register t name klass make =
  Mutex.lock t.lock;
  let m =
    match Hashtbl.find_opt t.tbl name with
    | Some (_, m) -> m
    | None ->
        let m = make () in
        Hashtbl.add t.tbl name (klass, m);
        m
  in
  Mutex.unlock t.lock;
  m

let counter t ?(klass = Exact) name =
  if not t.enabled then off_counter
  else
    match register t name klass (fun () -> M_counter (Atomic.make 0)) with
    | M_counter c -> { c_on = true; c_cell = c }
    | _ -> invalid_arg ("Metrics.Registry.counter: " ^ name ^ " is not a counter")

let gauge t ?(klass = Timed) name =
  if not t.enabled then off_gauge
  else
    match register t name klass (fun () -> M_gauge (Atomic.make 0.)) with
    | M_gauge g -> { g_on = true; g_cell = g }
    | _ -> invalid_arg ("Metrics.Registry.gauge: " ^ name ^ " is not a gauge")

let hist t ?(klass = Exact) name =
  if not t.enabled then off_hist
  else
    match register t name klass (fun () -> M_hist (Hist.create ())) with
    | M_hist h -> { h_on = true; h_hist = h }
    | _ -> invalid_arg ("Metrics.Registry.hist: " ^ name ^ " is not a histogram")

let[@inline] add c n = if c.c_on then ignore (Atomic.fetch_and_add c.c_cell n)
let[@inline] incr c = add c 1
let[@inline] set g v = if g.g_on then Atomic.set g.g_cell v
let[@inline] observe h v = if h.h_on then Hist.observe h.h_hist v
let counter_value c = Atomic.get c.c_cell
let hist_count h = Hist.count h.h_hist

type value =
  | Counter of int
  | Gauge of float
  | Histogram of { count : int; sum : int; buckets : (int * int) list }

type snapshot = (string * klass * value) list

let value_of = function
  | M_counter c -> Counter (Atomic.get c)
  | M_gauge g -> Gauge (Atomic.get g)
  | M_hist h -> Histogram { count = Hist.count h; sum = Hist.sum h; buckets = Hist.nonzero h }

let snapshot t =
  Mutex.lock t.lock;
  let entries = Hashtbl.fold (fun name (k, m) acc -> (name, k, value_of m) :: acc) t.tbl [] in
  Mutex.unlock t.lock;
  List.sort (fun (a, _, _) (b, _, _) -> String.compare a b) entries

let merge_buckets a b =
  (* both ascending by upper bound *)
  let rec go a b acc =
    match (a, b) with
    | [], rest | rest, [] -> List.rev_append acc rest
    | (ua, ca) :: ta, (ub, cb) :: tb ->
        if ua < ub then go ta b ((ua, ca) :: acc)
        else if ub < ua then go a tb ((ub, cb) :: acc)
        else go ta tb ((ua, ca + cb) :: acc)
  in
  go a b []

let merge_value a b =
  match (a, b) with
  | Counter x, Counter y -> Counter (x + y)
  | Gauge _, Gauge y -> Gauge y
  | Histogram h1, Histogram h2 ->
      Histogram
        {
          count = h1.count + h2.count;
          sum = h1.sum + h2.sum;
          buckets = merge_buckets h1.buckets h2.buckets;
        }
  | first, _ -> first

let merge snaps =
  let tbl = Hashtbl.create 64 in
  let order = ref [] in
  List.iter
    (List.iter (fun (name, k, v) ->
         match Hashtbl.find_opt tbl name with
         | None ->
             Hashtbl.add tbl name (k, v);
             order := name :: !order
         | Some (k0, v0) -> Hashtbl.replace tbl name (k0, merge_value v0 v)))
    snaps;
  !order
  |> List.rev_map (fun name ->
         let k, v = Hashtbl.find tbl name in
         (name, k, v))
  |> List.sort (fun (a, _, _) (b, _, _) -> String.compare a b)

let exact_only s = List.filter (fun (_, k, _) -> k = Exact) s
let timed_only s = List.filter (fun (_, k, _) -> k = Timed) s
