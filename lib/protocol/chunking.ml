type slot = { pi_round : int option; src : int; dst : int }

type chunk = { index : int; rounds : slot list array }

type t = {
  pi : Pi.t;
  k : int;
  layouts : slot list array array;
      (* [layouts.(i)]: the schedule of chunk i+1; the last entry, at
         [n_real], is the schedule every dummy chunk shares *)
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
let chunk_bits t = 5 * t.k
let n_real t = Array.length t.layouts - 1
let max_rounds t = Array.fold_left (fun acc r -> max acc (Array.length r)) 0 t.layouts

(* All 2m directed links in a canonical order, used for padding. *)
let all_dirs graph =
  Topology.Graph.edges graph
  |> Array.to_list
  |> List.concat_map (fun (u, v) -> [ (min u v, max u v); (max u v, min u v) ])
  |> Array.of_list

(* Schedule [count] padding transmissions into rounds of at most one
   symbol per directed link, cycling through all 2m links. *)
let padding_rounds dirs count =
  let two_m = Array.length dirs in
  Array.init ((count + two_m - 1) / two_m) (fun r ->
      List.init (min two_m (count - (r * two_m))) (fun i ->
          let src, dst = dirs.(i) in
          { pi_round = None; src; dst }))

(* Build the per-party views in two passes over every slot: one counts
   each party's entries, one fills them.  Within a round every sender's
   entry is added before any receiver's, so a party's entries come out
   ordered by round offset, sends before receives, then schedule order.
   A slot's event index is its position on its link in schedule order
   (round ascending, then list order): the transcript record's layout. *)
let index pi ~k layouts =
  let open Topology.Graph in
  let g = pi.Pi.graph in
  let n = n g and m = m g and nl = Array.length layouts in
  let view_start = Array.make ((nl * n) + 1) 0 in
  Array.iteri
    (fun l ->
      let count p = view_start.((l * n) + p + 1) <- view_start.((l * n) + p + 1) + 1 in
      Array.iter (List.iter (fun s -> count s.src; count s.dst)))
    layouts;
  for i = 1 to nl * n do
    view_start.(i) <- view_start.(i) + view_start.(i - 1)
  done;
  let total = view_start.(nl * n) in
  let step = Array.make total 0 and nbr = Array.make total 0 and event = Array.make total 0 in
  let fill = Array.sub view_start 0 (nl * n) and events = Array.make (nl * m) 0 in
  let pi_base = Array.make nl 0 and pi_rounds = Array.make nl 0 in
  let round_ev = Array.make (2 * m) 0 in
  let add l p ~peer ~st ~ev =
    let i = fill.((l * n) + p) in
    fill.((l * n) + p) <- i + 1;
    step.(i) <- st;
    nbr.(i) <- neighbor_index g p peer;
    event.(i) <- ev
  in
  Array.iteri
    (fun l ->
      Array.iteri (fun roff slots ->
          (match slots with
          | { pi_round = Some r; _ } :: _ -> pi_base.(l) <- r - roff; pi_rounds.(l) <- roff + 1
          | _ -> ());
          List.iteri
            (fun j s ->
              let cell = (l * m) + edge_id g s.src s.dst in
              round_ev.(j) <- events.(cell);
              events.(cell) <- events.(cell) + 1;
              add l s.src ~peer:s.dst ~st:(2 * roff) ~ev:round_ev.(j))
            slots;
          List.iteri
            (fun j s -> add l s.dst ~peer:s.src ~st:((2 * roff) + 1) ~ev:round_ev.(j))
            slots))
    layouts;
  { pi; k; layouts; pi_base; pi_rounds; events; view_start; step; nbr; event }

let make pi ~k =
  let m = Topology.Graph.m pi.Pi.graph in
  if k < m then invalid_arg "Chunking.make: k < m";
  let k5 = 5 * k in
  let dirs = all_dirs pi.Pi.graph in
  let two_m = Array.length dirs in
  (* Greedy packing: add protocol rounds while keeping >= 2m headroom so
     that the padding covers every directed link at least once.  Each Π
     round is one chunk round, so a chunk plays a run of consecutive Π
     rounds. *)
  let chunks = ref [] in
  let current = ref [] and current_comm = ref 0 in
  let flush () =
    let pad = k5 - !current_comm in
    assert (pad >= two_m);
    chunks := Array.append (Array.of_list (List.rev !current)) (padding_rounds dirs pad) :: !chunks;
    current := [];
    current_comm := 0
  in
  for r = 0 to pi.Pi.rounds - 1 do
    let sends = pi.Pi.sends_at r in
    let comm = List.length sends in
    assert (comm <= two_m);
    if !current_comm + comm > k5 - two_m then flush ();
    current :=
      List.map (fun (src, dst) -> { pi_round = Some r; src; dst }) sends :: !current;
    current_comm := !current_comm + comm
  done;
  if !current <> [] || !chunks = [] then flush ();
  index pi ~k (Array.of_list (List.rev (padding_rounds dirs k5 :: !chunks)))

let layout t chunk_index =
  if chunk_index < 1 then invalid_arg "Chunking.chunk: index < 1";
  min chunk_index (n_real t + 1) - 1

let chunk t i = { index = i; rounds = t.layouts.(layout t i) }

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
  let slots = Array.make (events_on_link t ~chunk_index ~edge) (0, 0, 0, false) in
  let g = t.pi.Pi.graph in
  let u, v = (Topology.Graph.edges g).(edge) in
  let lo, hi = party_view t ~chunk_index ~party:u and j = Topology.Graph.neighbor_index g u v in
  for e = lo to hi - 1 do
    if t.nbr.(e) = j then begin
      let src, dst = if entry_is_send t e then (u, v) else (v, u) in
      slots.(t.event.(e)) <- (entry_round t e, src, dst, entry_pi_round t ~chunk_index e < 0)
    end
  done;
  slots

let link_slots t ~chunk_index ~edge =
  Array.map (fun (r, src, dst, _) -> (r, src, dst)) (link_slots_full t ~chunk_index ~edge)

let serialized_chunk_bits t ~chunk_index ~edge =
  32 + (2 * events_on_link t ~chunk_index ~edge)

let max_transcript_words t ~horizon =
  let n_real = n_real t in
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
