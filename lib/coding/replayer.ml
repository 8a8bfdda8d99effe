open Protocol

(* A rung is a snapshot of the machine after replaying chunks 1..upto,
   plus each neighbour transcript's prefix stamp at [upto]: it is still
   current exactly while every transcript holds [upto] chunks with the
   same stamps. *)
type rung = { upto : int; machine : Pi.machine; stamps : int array }

type t = {
  ch : Chunking.t;
  party : int;
  input : int;
  neighbors : int array;
  mutable live : Pi.machine; (* the last stored machine, handed out uncopied on a hit *)
  mutable live_upto : int; (* -1 once [live] is handed out *)
  live_stamps : int array;
  mutable laddered : bool;
      (* the party has missed: from then on [store] takes rungs (a run
         that never rewinds never misses, and snapshots would only cost
         it time and heap) *)
  mutable ladder : rung list; (* newest first, at multiples of [every] *)
}

let every = 4

let create ch ~party ~input =
  let neighbors = Topology.Graph.neighbors (Chunking.pi ch).Pi.graph party in
  {
    ch;
    party;
    input;
    neighbors;
    live = (Chunking.pi ch).Pi.spawn ~party ~input;
    live_upto = 0;
    live_stamps = Array.make (Array.length neighbors) 0;
    laddered = false;
    ladder = [];
  }

let current transcripts ~upto stamps =
  let rec go j =
    j < 0
    || (let tr = transcripts j in
        Transcript.length tr >= upto && Transcript.stamp tr upto = stamps.(j) && go (j - 1))
  in
  go (Array.length stamps - 1)

(* Feed one chunk into the machine by walking the party's view of it:
   sends are recomputed, receives come from the recorded transcript
   symbols (∗, or a record too short to hold the event, reads as 0).  The
   view orders each round's sends before its receives, mirroring both
   the noiseless executor and the live simulation phase. *)
let feed_chunk t machine transcripts c =
  if c <= Chunking.n_real t.ch then begin
    let lo, hi = Chunking.party_view t.ch ~chunk_index:c ~party:t.party in
    for e = lo to hi - 1 do
      let r = Chunking.entry_pi_round t.ch ~chunk_index:c e and j = Chunking.entry_nbr t.ch e in
      if r >= 0 && Chunking.entry_is_send t.ch e then
        ignore (machine.Pi.send ~round:r ~dst:t.neighbors.(j))
      else if r >= 0 then
        let tr = transcripts j and i = Chunking.entry_event t.ch e in
        machine.Pi.recv ~round:r ~src:t.neighbors.(j)
          (i < Transcript.event_count tr c
          && Transcript.symbol tr ~chunk:c ~event:i = Transcript.sym_bit true)
    done
  end

(* The machine to resume from and the chunk it stands at: the live one
   if current, else a copy of the newest current rung at or below [upto]
   (stale rungs are dropped on the way: a stamp that changed never comes
   back), else a fresh spawn. *)
let resume t transcripts ~upto =
  if t.live_upto >= 0 && t.live_upto <= upto && current transcripts ~upto:t.live_upto t.live_stamps
  then (t.live, t.live_upto)
  else begin
    t.laddered <- true;
    t.ladder <- List.filter (fun r -> current transcripts ~upto:r.upto r.stamps) t.ladder;
    match List.find_opt (fun r -> r.upto <= upto) t.ladder with
    | Some r -> (r.machine.Pi.snapshot (), r.upto)
    | None -> ((Chunking.pi t.ch).Pi.spawn ~party:t.party ~input:t.input, 0)
  end

let machine_at t ~transcripts ~upto =
  let machine, from = resume t transcripts ~upto in
  (* Ownership moves to the caller, who may advance the machine through
     live simulation; it must re-[store] it to re-enable caching. *)
  t.live_upto <- -1;
  for c = from + 1 to upto do
    feed_chunk t machine transcripts c
  done;
  machine

(* Rung [q] (in units of [every]) survives while [q] is a multiple of
   2^k, k = ⌊log2 (d + 1)⌋ − 1 at distance [d] from the newest rung [top]:
   about two rungs per doubling of the distance, so O(log n_real) rungs,
   and a rewind of depth D resumes at most about D/2 + [every] chunks
   below its target. *)
let keep ~top q =
  let rec lg acc x = if x <= 1 then acc else lg (acc + 1) (x lsr 1) in
  let k = max 0 (lg 0 (top - q + 1) - 1) in
  q land ((1 lsl k) - 1) = 0

let store t ~machine ~upto ~transcripts =
  t.live <- machine;
  t.live_upto <- upto;
  Array.iteri (fun j _ -> t.live_stamps.(j) <- Transcript.stamp (transcripts j) upto) t.neighbors;
  if t.laddered && upto > 0 && upto mod every = 0 then begin
    let top = upto / every in
    let older = List.filter (fun r -> r.upto < upto && keep ~top (r.upto / every)) t.ladder in
    t.ladder <- { upto; machine = machine.Pi.snapshot (); stamps = Array.copy t.live_stamps } :: older
  end

let output t ~transcripts ~upto =
  let machine = machine_at t ~transcripts ~upto in
  let result = machine.Pi.output () in
  store t ~machine ~upto ~transcripts;
  result
