type slot = { pi_round : int option; src : int; dst : int }

type chunk = { index : int; rounds : slot list array }

type t = {
  pi : Pi.t;
  k : int;
  real : chunk array;
  dummy_rounds : slot list array;
  max_rounds : int;
  links : (int * int * int) array array array;
      (* [links.(i).(edge)]: chunk i+1's slots on [edge] in schedule order;
         the last entry, at [n_real], is the layout shared by every dummy chunk *)
}

let pi t = t.pi
let k t = t.k
let chunk_bits t = 5 * t.k
let n_real t = Array.length t.real
let max_rounds t = t.max_rounds

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

(* Bucket a chunk's slots by link in schedule order: round ascending, then
   list order within a round (built back to front onto per-link lists). *)
let index_links graph rounds =
  let buckets = Array.make (Topology.Graph.m graph) [] in
  for roff = Array.length rounds - 1 downto 0 do
    List.iter
      (fun s ->
        let e = Topology.Graph.edge_id graph s.src s.dst in
        buckets.(e) <- (roff, s.src, s.dst) :: buckets.(e))
      (List.rev rounds.(roff))
  done;
  Array.map Array.of_list buckets

let make pi ~k =
  let m = Topology.Graph.m pi.Pi.graph in
  if k < m then invalid_arg "Chunking.make: k < m";
  let k5 = 5 * k in
  let dirs = all_dirs pi.Pi.graph in
  let two_m = Array.length dirs in
  (* Greedy packing: add protocol rounds while keeping >= 2m headroom so
     that the padding covers every directed link at least once. *)
  let chunks = ref [] in
  let current = ref [] and current_comm = ref 0 in
  let flush () =
    let real_rounds = List.rev !current in
    let pad = k5 - !current_comm in
    assert (pad >= two_m);
    let rounds = Array.append (Array.of_list real_rounds) (padding_rounds dirs pad) in
    chunks := { index = List.length !chunks + 1; rounds } :: !chunks;
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
  let real = Array.of_list (List.rev !chunks) in
  let dummy_rounds = padding_rounds dirs k5 in
  let max_rounds =
    Array.fold_left
      (fun acc c -> max acc (Array.length c.rounds))
      (Array.length dummy_rounds) real
  in
  let links = Array.map (fun c -> index_links pi.Pi.graph c.rounds) real in
  let links = Array.append links [| index_links pi.Pi.graph dummy_rounds |] in
  { pi; k; real; dummy_rounds; max_rounds; links }

let chunk t i =
  if i < 1 then invalid_arg "Chunking.chunk: index < 1";
  if i <= Array.length t.real then t.real.(i - 1) else { index = i; rounds = t.dummy_rounds }

let link_slots t ~chunk_index ~edge =
  if chunk_index < 1 then invalid_arg "Chunking.chunk: index < 1";
  if edge < 0 || edge >= Topology.Graph.m t.pi.Pi.graph then
    invalid_arg "Chunking: edge out of range";
  t.links.(min chunk_index (n_real t + 1) - 1).(edge)

(* A slot is padding iff its round's entry for that directed link is. *)
let link_slots_full t ~chunk_index ~edge =
  let rounds = (chunk t chunk_index).rounds in
  Array.map
    (fun (roff, src, dst) ->
      let s = List.find (fun s -> s.src = src && s.dst = dst) rounds.(roff) in
      (roff, src, dst, s.pi_round = None))
    (link_slots t ~chunk_index ~edge)

let events_on_link t ~chunk_index ~edge = Array.length (link_slots t ~chunk_index ~edge)

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
