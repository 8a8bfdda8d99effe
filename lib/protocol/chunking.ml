type t = {
  pi : Pi.t;
  k : int;
  n_real : int;
  max_rounds : int;
  (* Layout [l] < [n_real] is chunk l+1; layout [n_real] is the schedule
     every dummy chunk shares. *)
  pi_base : int array; (* per layout: the Π round played at round offset 0 *)
  pi_rounds : int array; (* per layout: leading rounds that carry Π; the rest pad *)
  events : int array; (* [l * m + edge]: slots of layout [l] on [edge] *)
  view_start : int array; (* [l * n + party]: the party's first entry in layout [l] *)
  step : int array; (* per entry: 2 * round offset, + 1 for a receive *)
  nbr : int array; (* per entry: the peer's index in [Graph.neighbors party] *)
  event : int array; (* per entry: its position in the link's chunk record *)
}

let pi t = t.pi
let k t = t.k
let n_real t = t.n_real
let max_rounds t = t.max_rounds

(* Greedy packing: add Π rounds to a chunk while keeping >= 2m slots of
   headroom, so that the padding covers every directed link at least
   once.  Each Π round is one chunk round, so a chunk plays a run of
   consecutive Π rounds; the last chunk is flushed even when empty, so
   a Π without rounds still has one real chunk.  Returns each real
   chunk's first Π round and round count. *)
let pack pi ~k5 ~two_m =
  let sched = pi.Pi.schedule in
  let starts = ref [] and start = ref 0 and comm = ref 0 in
  Array.iteri
    (fun r ds ->
      if !comm + Array.length ds > k5 - two_m then begin
        starts := !start :: !starts;
        start := r;
        comm := 0
      end;
      comm := !comm + Array.length ds)
    sched;
  let starts = Array.of_list (List.rev (!start :: !starts)) in
  let next c = if c + 1 < Array.length starts then starts.(c + 1) else pi.Pi.rounds in
  (starts, Array.mapi (fun c first -> next c - first) starts)

(* Build the per-party views in two passes over every slot: one counts
   each party's entries, one fills them.  A layout's rounds are its Π
   rounds (dir ids in schedule order), then virtual padding: rounds of
   at most 2m slots that cycle through the dir ids 0, 1, ..., topping
   the chunk up to exactly 5K.  Within a round every sender's entry is
   added before any receiver's, so a party's entries come out ordered by
   round offset, sends before receives, then schedule order.  A slot's
   event index is its position on its link (edge [dir / 2]) in schedule
   order: the transcript record's layout. *)
let make pi ~k =
  let open Topology.Graph in
  let g = pi.Pi.graph in
  let n = n g and m = m g in
  if k < m then invalid_arg "Chunking.make: k < m";
  let k5 = 5 * k and two_m = 2 * m in
  let starts, lens = pack pi ~k5 ~two_m in
  let n_real = Array.length starts in
  let nl = n_real + 1 in
  let pi_base = Array.append starts [| 0 |] and pi_rounds = Array.append lens [| 0 |] in
  let padding = Array.init two_m Fun.id in
  (* [f roff dirs len] for each round of layout [l]: the round's slots
     are [dirs.(0 .. len - 1)].  Returns the layout's round count. *)
  let iter_layout l f =
    let comm = ref 0 in
    for i = 0 to pi_rounds.(l) - 1 do
      let ds = pi.Pi.schedule.(pi_base.(l) + i) in
      f i ds (Array.length ds);
      comm := !comm + Array.length ds
    done;
    let roff = ref pi_rounds.(l) and left = ref (k5 - !comm) in
    assert (!left >= two_m);
    while !left > 0 do
      f !roff padding (min two_m !left);
      incr roff;
      left := !left - two_m
    done;
    !roff
  in
  let view_start = Array.make ((nl * n) + 1) 0 in
  let max_rounds = ref 0 in
  for l = 0 to nl - 1 do
    let count p = view_start.((l * n) + p + 1) <- view_start.((l * n) + p + 1) + 1 in
    let rounds =
      iter_layout l (fun _ ds len ->
          for j = 0 to len - 1 do
            let u, v = dir_ends g ds.(j) in
            count u;
            count v
          done)
    in
    max_rounds := max !max_rounds rounds
  done;
  for i = 1 to nl * n do
    view_start.(i) <- view_start.(i) + view_start.(i - 1)
  done;
  let total = view_start.(nl * n) in
  let step = Array.make total 0 and nbr = Array.make total 0 and event = Array.make total 0 in
  let fill = Array.sub view_start 0 (nl * n) and events = Array.make (nl * m) 0 in
  (* Per dir: the peer's index in the sender's and in the receiver's
     neighbour list. *)
  let src_nbr = Array.init two_m (fun d -> let u, v = dir_ends g d in neighbor_index g u v) in
  let dst_nbr = Array.init two_m (fun d -> let u, v = dir_ends g d in neighbor_index g v u) in
  let round_ev = Array.make two_m 0 in
  let add l p ~nb ~st ~ev =
    let i = fill.((l * n) + p) in
    fill.((l * n) + p) <- i + 1;
    step.(i) <- st;
    nbr.(i) <- nb;
    event.(i) <- ev
  in
  for l = 0 to nl - 1 do
    ignore
      (iter_layout l (fun roff ds len ->
           for j = 0 to len - 1 do
             let d = ds.(j) in
             let cell = (l * m) + (d / 2) in
             round_ev.(j) <- events.(cell);
             events.(cell) <- events.(cell) + 1;
             add l (fst (dir_ends g d)) ~nb:src_nbr.(d) ~st:(2 * roff) ~ev:round_ev.(j)
           done;
           for j = 0 to len - 1 do
             let d = ds.(j) in
             add l (snd (dir_ends g d)) ~nb:dst_nbr.(d) ~st:((2 * roff) + 1) ~ev:round_ev.(j)
           done))
  done;
  {
    pi;
    k;
    n_real;
    max_rounds = !max_rounds;
    pi_base;
    pi_rounds;
    events;
    view_start;
    step;
    nbr;
    event;
  }

let layout t chunk_index =
  if chunk_index < 1 then invalid_arg "Chunking: chunk_index < 1";
  min chunk_index (t.n_real + 1) - 1

let party_view t ~chunk_index ~party =
  let l = layout t chunk_index and n = Topology.Graph.n t.pi.Pi.graph in
  if party < 0 || party >= n then invalid_arg "Chunking: party out of range";
  (t.view_start.((l * n) + party), t.view_start.((l * n) + party + 1))

let entry_round t e = t.step.(e) lsr 1
let entry_is_send t e = t.step.(e) land 1 = 0
let entry_nbr t e = t.nbr.(e)
let entry_event t e = t.event.(e)

let entry_pi_round t ~chunk_index e =
  let l = layout t chunk_index and r = entry_round t e in
  if r < t.pi_rounds.(l) then t.pi_base.(l) + r else -1

let events_on_link t ~chunk_index ~edge =
  let l = layout t chunk_index and m = Topology.Graph.m t.pi.Pi.graph in
  if edge < 0 || edge >= m then invalid_arg "Chunking: edge out of range";
  t.events.((l * m) + edge)

(* A link's slots, read off its first endpoint's view: that endpoint
   sends or receives each of them, and the entry's event index is the
   slot's place. *)
let link_slots_full t ~chunk_index ~edge =
  let slots = Array.make (events_on_link t ~chunk_index ~edge) (0, 0, false) in
  let g = t.pi.Pi.graph in
  let u, v = (Topology.Graph.edges g).(edge) in
  let lo, hi = party_view t ~chunk_index ~party:u and j = Topology.Graph.neighbor_index g u v in
  let out = Topology.Graph.dir_id g ~src:u ~dst:v and back = Topology.Graph.dir_id g ~src:v ~dst:u in
  for e = lo to hi - 1 do
    if t.nbr.(e) = j then
      let dir = if entry_is_send t e then out else back in
      slots.(t.event.(e)) <- (entry_round t e, dir, entry_pi_round t ~chunk_index e < 0)
  done;
  slots

let serialized_chunk_bits t ~chunk_index ~edge =
  32 + (2 * events_on_link t ~chunk_index ~edge)

let max_transcript_words t ~horizon =
  let n_real = t.n_real in
  let worst = ref 0 in
  for edge = 0 to Topology.Graph.m t.pi.Pi.graph - 1 do
    let bits c = serialized_chunk_bits t ~chunk_index:c ~edge in
    let total = ref (max 0 (horizon - n_real) * bits (n_real + 1)) in
    for c = 1 to min horizon n_real do
      total := !total + bits c
    done;
    worst := max !worst !total
  done;
  (!worst + 63) / 64
