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

    Replays resume from checkpoints.  A checkpoint is a machine after
    chunks 1..s together with each link's {!Transcript.stamp} at s; it is
    current while every link still holds s chunks with those stamps
    (O(degree) integer compares).  The replayer keeps the last stored
    machine, handed back uncopied when it is current and at or below
    the target, so an error-free simulation feeds O(1) chunks per
    iteration.  From the party's first miss on, it also keeps a ladder of
    {!Protocol.Pi.machine} snapshots taken at every 4th stored chunk and
    thinned with distance (about two per doubling, so O(log n_real)):
    a miss copies the newest current rung at or below the target and
    feeds only the chunks after it, and re-spawns only when no rung is
    current.  A rewind of depth D thus replays about D/2 + 4 chunks
    rather than the whole prefix.  A run that never misses takes no
    snapshots. *)

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
    advancing it (the cache hands out ownership until the next call;
    rungs are never handed out, only copies of them). *)

val store :
  t -> machine:Protocol.Pi.machine -> upto:int -> transcripts:(int -> Transcript.t) -> unit
(** Give a machine back to the cache, asserting that its state equals a
    replay of chunks 1..upto of the current transcripts.  The simulation
    phase calls this after a fully-successful chunk, making error-free
    simulation cost O(1) replayed chunks per iteration.  Once the party
    has missed, a store at a multiple of 4 also takes a rung (one
    {!Protocol.Pi.machine.snapshot}). *)

val output : t -> transcripts:(int -> Transcript.t) -> upto:int -> int
(** The party's Π-output after [upto] chunks. *)
