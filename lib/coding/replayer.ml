open Protocol

type t = {
  ch : Chunking.t;
  party : int;
  input : int;
  neighbors : int array;
  mutable cached : (Pi.machine * int * int array) option;
      (* machine after replaying chunks 1..upto, plus each neighbor
         transcript's version at store time: any truncation since then
         bumps a version and invalidates the cache *)
}

let create ch ~party ~input =
  let neighbors = Topology.Graph.neighbors (Chunking.pi ch).Pi.graph party in
  { ch; party; input; neighbors; cached = None }

let versions t transcripts = Array.mapi (fun j _ -> Transcript.version (transcripts j)) t.neighbors

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
        let ev = Transcript.events (transcripts j) c and i = Chunking.entry_event t.ch e in
        machine.Pi.recv ~round:r ~src:t.neighbors.(j)
          (i < Array.length ev && ev.(i) = Transcript.sym_bit true)
    done
  end

let machine_at t ~transcripts ~upto =
  let machine, from =
    match t.cached with
    | Some (machine, c_upto, vsnap) when c_upto <= upto && vsnap = versions t transcripts ->
        (machine, c_upto + 1)
    | Some _ | None -> ((Chunking.pi t.ch).Pi.spawn ~party:t.party ~input:t.input, 1)
  in
  (* Ownership moves to the caller, who may advance the machine through
     live simulation; it must re-[store] it to re-enable caching. *)
  t.cached <- None;
  for c = from to upto do
    feed_chunk t machine transcripts c
  done;
  machine

let store t ~machine ~upto ~transcripts =
  t.cached <- Some (machine, upto, versions t transcripts)

let output t ~transcripts ~upto =
  let machine = machine_at t ~transcripts ~upto in
  let result = machine.Pi.output () in
  store t ~machine ~upto ~transcripts;
  result
