(** Noiseless multiparty protocols Π (§2.1).

    A protocol runs for a fixed number of synchronous rounds over a graph.
    As the paper requires, the {e speaking order is fixed}: whether the
    directed link u→v carries a bit in round r does not depend on inputs
    — only the {e content} of messages does.  So the schedule is a value:
    {!make} calls the author's [sends_at] once per round and compiles it
    into per-round arrays of directed-link ids, checking it as it goes.
    A [t] can only come from {!make}, so every [t] is a valid schedule,
    and every schedule reader walks the compiled arrays.  Message content
    is produced by per-party {!machine}s: deterministic state machines
    over (input, received bits).

    The machine interface is re-entrant by construction: the coding scheme
    rebuilds a machine from stored transcripts whenever it needs to
    (re-)simulate a chunk after a rewind.  Machines can be copied
    ([snapshot]), so that rebuild resumes from a checkpoint copy taken
    at an earlier chunk instead of re-[spawn]ing and replaying from
    chunk 1. *)

type machine = {
  send : round:int -> dst:int -> bool;
      (** Called exactly when round [round]'s schedule has me→dst, in
          schedule order within the round.  Must be deterministic given
          the machine's history. *)
  recv : round:int -> src:int -> bool -> unit;
      (** Delivery of the (possibly corrupted) bit scheduled src→me. *)
  output : unit -> int;
      (** The party's output given the history so far (computable at any
          point; meaningful after the last round). *)
  snapshot : unit -> machine;
      (** An independent machine in the same state: advancing either
          one leaves the other's later sends and output unchanged, and
          the copy behaves exactly as a fresh [spawn] given the same calls
          would.  O(the machine's state). *)
}

type t = private {
  graph : Topology.Graph.t;
  rounds : int;
  schedule : int array array;
      (** [schedule.(r)] lists the directed links
          ({!Topology.Graph.dir_id}) that carry a bit in round [r], in the
          order [sends_at r] gave them.  Read-only: {!make} checked these
          arrays, and every reader shares them. *)
  spawn : party:int -> input:int -> machine;
}

val make :
  graph:Topology.Graph.t ->
  rounds:int ->
  sends_at:(int -> (int * int) list) ->
  spawn:(party:int -> input:int -> machine) ->
  t
(** [make ~graph ~rounds ~sends_at ~spawn] compiles the schedule: it
    calls [sends_at r] once for each round [r] in [\[0, rounds)], where
    [sends_at r] lists the (src, dst) transmissions of round [r] in a
    canonical order, and keeps no reference to [sends_at].  Each directed
    link may appear at most once per round, and endpoints must be
    adjacent.
    @raise Invalid_argument ["Pi.make: round r schedules non-adjacent
    u->v"] or ["Pi.make: round r schedules u->v twice"] at the first
    pair that breaks a rule. *)

val sends_at : t -> int -> (int * int) list
(** [sends_at t r] is round [r]'s transmissions as (src, dst) pairs, in
    schedule order, for [r] in [\[0, rounds)]. *)

val cc : t -> int
(** Communication complexity: total number of transmissions. *)

val run_noiseless : t -> inputs:int array -> int array
(** Reference execution over a perfect network; returns per-party
    outputs.  This is the ground truth every coding scheme must
    reproduce. *)
