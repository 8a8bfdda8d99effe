(** Noiseless multiparty protocols Π (§2.1).

    A protocol runs for a fixed number of synchronous rounds over a graph.
    As the paper requires, the {e speaking order is fixed}: whether the
    directed link u→v carries a bit in round r is given by the pure
    function [sends_at] and does not depend on inputs — only the {e
    content} of messages does.  Message content is produced by per-party
    {!machine}s: deterministic state machines over (input, received bits).

    The machine interface is re-entrant by construction: the coding scheme
    rebuilds a machine from stored transcripts whenever it needs to
    (re-)simulate a chunk after a rewind.  Machines can be copied
    ([snapshot]), so that rebuild resumes from a checkpoint copy taken
    at an earlier chunk instead of re-[spawn]ing and replaying from
    chunk 1. *)

type machine = {
  send : round:int -> dst:int -> bool;
      (** Called exactly when [sends_at round] schedules me→dst, in
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

type t = {
  graph : Topology.Graph.t;
  rounds : int;
  sends_at : int -> (int * int) list;
      (** [sends_at r] lists the (src, dst) transmissions of round [r],
          in a canonical order.  Pure.  Each directed link at most once
          per round; endpoints must be adjacent. *)
  spawn : party:int -> input:int -> machine;
}

val cc : t -> int
(** Communication complexity: total number of transmissions. *)

val validate : t -> unit
(** Check the schedule invariants (adjacency, no duplicate directed link
    in a round); raises [Invalid_argument] on violation.  Keeps one
    round stamp per directed link, no table per round. *)

val run_noiseless : t -> inputs:int array -> int array
(** Reference execution over a perfect network; returns per-party
    outputs.  This is the ground truth every coding scheme must
    reproduce. *)
