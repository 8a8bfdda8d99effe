(* Deterministic interleave of per-shard trace rings.  See merge.mli. *)

type entry = {
  shard : int; (* -1 = leader/control ring *)
  tick : int;
  ev : Sink.event;
  alloc : (float * float) option;
}

let seq_of = function
  | Sink.Span_begin { seq; _ } | Sink.Span_end { seq; _ } | Sink.Count { seq; _ }
  | Sink.Gauge { seq; _ } ->
      seq

let with_seq seq = function
  | Sink.Span_begin e -> Sink.Span_begin { e with seq }
  | Sink.Span_end e -> Sink.Span_end { e with seq }
  | Sink.Count e -> Sink.Count { e with seq }
  | Sink.Gauge e -> Sink.Gauge { e with seq }

let of_ring ~shard r acc =
  let acc = ref acc in
  Sink.iter r (fun ev ->
      let sq = seq_of ev in
      acc :=
        { shard; tick = Sink.tick_at r sq; ev; alloc = Sink.alloc_words r ~seq:sq } :: !acc);
  !acc

(* Sort key (tick, shard, seq): ticks encode the engine's deterministic
   job schedule (each job index j contributes ticks 4j .. 4j+3 for the
   leader / write / network / read positions), shards break ties in
   ascending party-range order — the order the serial engine visits
   them — and seq preserves per-ring emission order.  At ragged depth 0
   this concatenation IS the serial emission order; when ragged it is a
   well-ordering that keeps per-shard causality intact. *)
let compare_entries a b =
  let c = compare a.tick b.tick in
  if c <> 0 then c
  else
    let c = compare a.shard b.shard in
    if c <> 0 then c else compare (seq_of a.ev) (seq_of b.ev)

let entries sh =
  if not (Sharded.is_enabled sh) then []
  else begin
    let acc = of_ring ~shard:(-1) (Sharded.leader sh) [] in
    let acc = ref acc in
    for w = 0 to Sharded.shards sh - 1 do
      acc := of_ring ~shard:w (Sharded.ring sh w) !acc
    done;
    let sorted = List.stable_sort compare_entries (List.rev !acc) in
    (* Merge order is the new truth: renumber seqs 0.. so exports and
       timelines are independent of per-ring counters (and therefore of
       the shard count, at d = 0). *)
    List.mapi (fun i e -> { e with ev = with_seq i e.ev }) sorted
  end

let value_of = function Sink.Count { value; _ } -> Some value | _ -> None

let name_of = function
  | Sink.Span_begin { name; _ } | Sink.Span_end { name; _ } | Sink.Count { name; _ }
  | Sink.Gauge { name; _ } ->
      name

let into_sink sh ~dst =
  if Sharded.is_enabled sh && Sink.is_enabled dst then begin
    let replayed = Hashtbl.create 32 in
    List.iter
      (fun e ->
        (match value_of e.ev with
        | Some v ->
            let n = name_of e.ev in
            Hashtbl.replace replayed n (v + Option.value ~default:0 (Hashtbl.find_opt replayed n))
        | None -> ());
        Sink.replay dst ?alloc:e.alloc e.ev)
      (entries sh);
    (* Rings that wrapped lost count *events* but not their drop-proof
       totals; carry the residual over so the merged sink's totals stay
       authoritative, and surface the loss through [Sink.dropped]. *)
    List.iter
      (fun (n, total) ->
        let seen = Option.value ~default:0 (Hashtbl.find_opt replayed n) in
        if total <> seen then Sink.count dst ~id:(Sink.declare n) (total - seen))
      (Sharded.counter_totals sh);
    Sink.note_dropped dst (Sharded.dropped sh)
  end
