(** A sink's event ring as a per-iteration timeline.

    {!Trace.Sink} deliberately records a flat event ring; this module
    is the inverse transform the forensic tools are built on.  It walks
    the sink's retained events tracking the open span stack, and buckets
    everything by the enclosing [scheme.iteration] span and the
    innermost [phase.*] span — per-slot network events carry the
    {e network round} in their [iter] tag, so positional attribution,
    not the tag, is what places an event in an iteration.

    The result is total: bad nesting (a ring that wrapped mid-span, an
    aborted run) is recorded in {!t.errors} and analysis continues, so a
    truncated trace still yields a partial timeline. *)

type attributed = {
  phase : string;  (** innermost [phase.*] span, [""] outside *)
  ev : Trace.Sink.event;
      (** [iter] is the emitter's coordinate: scheme iteration for
          scheme probes, absolute network round for [net.*] events;
          a count's [arg] is its secondary coordinate (party, directed
          link, position) *)
}

type iteration = {
  index : int;  (** the scheme iteration (the span's [iter] tag) *)
  events : attributed list;  (** in emission order, phase-attributed *)
  counts : (string * int) list;  (** per-name value sums, sorted by name *)
  b_star : float option;  (** [progress.b_star] gauge, if emitted *)
  stalled : bool;  (** a [phi.stall] count fired this iteration *)
}

type t = {
  setup : attributed list;
      (** events outside every [scheme.iteration] span (randomness
          exchange, output decoding, network rounds between spans) *)
  iterations : iteration list;  (** in order of appearance *)
  counter_sums : (string * int) list;
      (** per-counter value sums recomputed from the retained events,
          nonzero entries only, sorted by name *)
  counter_totals : (string * int) list;
      (** authoritative drop-proof totals (the sink's side tables) *)
  first_seq : int;
      (** sequence number of the first retained event
          ({!Trace.Sink.dropped}) *)
  truncated : bool;  (** [first_seq > 0]: the ring dropped a prefix *)
  errors : string list;  (** nesting violations, in order *)
}

val of_sink : Trace.Sink.t -> t
(** Build from a sink's retained events; [counter_totals] and
    [truncated] come from its drop-proof bookkeeping. *)

val count : iteration -> string -> int
(** Summed value of a counter within one iteration (0 if absent). *)

