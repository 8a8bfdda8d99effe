(** Local re-execution of Π from pairwise transcripts.

    A party's view of the simulated computation is its set of pairwise
    transcripts.  To produce the next chunk's messages (or its final
    output) the party re-runs its deterministic protocol machine,
    feeding it the received bits recorded in the transcripts of chunks
    1..c (∗ symbols, and events past the end of a record, are read as
    0 — if they came from noise the meeting-points check will flag the
    chunk anyway).

    A chunk is replayed by walking the party's {!Protocol.Chunking}
    per-party view: its sends and receives in schedule order, each with
    its neighbour, Π round and event index already resolved, so a replay
    costs O(the party's own slots).  The live simulation phase walks the
    same view, which is what keeps a replay equal to the live run.

    Replays are cached: as long as no transcript of the party has been
    truncated since the last replay (checked via transcript versions),
    the cached machine is advanced incrementally instead of rebuilt, so
    an error-free simulation costs O(1) replays per chunk. *)

type t

val create : Protocol.Chunking.t -> party:int -> input:int -> t
(** The replayer of [party], whose machine is spawned on [input]; its
    neighbours are read from the chunking's graph. *)

val machine_at :
  t -> transcripts:(int -> Transcript.t) -> upto:int -> Protocol.Pi.machine
(** [machine_at r ~transcripts ~upto] is the party's machine after
    replaying chunks 1..upto, where [transcripts j] is the transcript of
    the link to the party's [j]-th neighbour, in [Graph.neighbors] order
    (the view's neighbour index).  Each transcript must hold at least
    [upto] chunks.  The returned machine is live: the caller may keep
    advancing it (the cache hands out ownership until the next call). *)

val store :
  t -> machine:Protocol.Pi.machine -> upto:int -> transcripts:(int -> Transcript.t) -> unit
(** Give a machine back to the cache, asserting that its state equals a
    replay of chunks 1..upto of the current transcripts.  The simulation
    phase calls this after a fully-successful chunk, making error-free
    simulation cost O(1) replayed chunks per iteration. *)

val output : t -> transcripts:(int -> Transcript.t) -> upto:int -> int
(** The party's Π-output after [upto] chunks. *)
