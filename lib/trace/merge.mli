(** Deterministic merge of per-shard trace rings into one stream.

    The execution engine stamps every event with a logical tick
    ({!Sink.set_tick}) derived from its deterministic job schedule: job
    index [j] — the count of round/slice/join jobs issued by the leader,
    identical across the serial and parallel engines — contributes ticks
    [4j] (leader-side events while issuing), [4j+1] (the owning shard's
    writes), [4j+2] (network commits) and [4j+3] (the owning shard's
    reads).  Sorting all retained events by [(tick, shard, seq)] and
    renumbering seqs [0..] therefore reproduces, at ragged depth 0 with
    [~timing:false], exactly the stream a serial run emits —
    byte-identical exports at any shard count, provided no ring dropped
    ({!Sharded.dropped} = 0).  Under ragged synchrony the result is
    still a well-ordering: per-shard causality (seq order within a
    ring) is preserved and each event keeps its shard attribution. *)

type entry = {
  shard : int;  (** owning worker shard, or [-1] for the leader ring *)
  tick : int;  (** logical merge position (see above) *)
  ev : Sink.event;  (** seq renumbered to the merged position *)
  alloc : (float * float) option;  (** Gc words, profiled rings only *)
}

val entries : Sharded.t -> entry list
(** All retained events of every ring, merge-ordered and renumbered.
    [[]] on a disabled bundle. *)

val into_sink : Sharded.t -> dst:Sink.t -> unit
(** Replay the merged stream into [dst] (preserving source timestamps
    and Gc words, assigning fresh seqs), so every single-sink consumer
    — {!Export}, timelines, summaries — works on sharded captures
    unchanged.  Counter totals stay drop-proof: any total lost to ring
    wrap-around is re-emitted as one residual count event per counter,
    and source drops are surfaced via {!Sink.note_dropped}. *)
