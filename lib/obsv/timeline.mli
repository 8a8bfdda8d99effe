(** Typed re-parse of a trace into a per-iteration timeline.

    {!Trace.Sink} deliberately records a flat event ring; this module
    is the inverse transform the forensic tools are built on.  It walks
    the events (live from a sink, or re-parsed from a timing-free JSONL
    export) tracking the open span stack, and buckets everything by the
    enclosing [scheme.iteration] span and the innermost [phase.*] span —
    per-slot network events carry the {e network round} in their [iter]
    tag, so positional attribution, not the tag, is what places an event
    in an iteration.

    The result is total: malformed input (bad nesting, unparseable
    lines) is recorded in {!t.errors} and analysis continues, so a
    truncated or damaged trace still yields a partial timeline. *)

type kind = Span_begin | Span_end | Count | Gauge

type ev = {
  seq : int;
  kind : kind;
  name : string;
  iter : int;  (** the emitter's coordinate: scheme iteration for scheme
                   probes, absolute network round for [net.*] events *)
  arg : int;  (** secondary coordinate: party, directed link, position *)
  ival : int;  (** count value ([Count] only) *)
  fval : float;  (** gauge value ([Gauge] only) *)
}

type attributed = { phase : string;  (** innermost [phase.*] span, [""] outside *) ev : ev }

type iteration = {
  index : int;  (** the scheme iteration (the span's [iter] tag) *)
  events : attributed list;  (** in emission order, phase-attributed *)
  counts : (string * int) list;  (** per-name value sums, sorted by name *)
  phi : float option;  (** Φ gauge, if emitted this iteration *)
  g_star : float option;
  b_star : float option;
  stalled : bool;  (** a [phi.stall] count fired this iteration *)
  rewind_requests : int;
  rewind_depth : int option;
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
      (** authoritative drop-proof totals when built {!of_sink} (the
          sink's side tables); equal to [counter_sums] when re-parsed
          from an export, which carries no side tables *)
  first_seq : int;  (** sequence number of the first retained event *)
  truncated : bool;  (** [first_seq > 0]: the ring dropped a prefix *)
  errors : string list;  (** nesting/parse violations, in order *)
}

val of_sink : Trace.Sink.t -> t
(** Build from a live sink; [counter_totals] and [truncated] come from
    the sink's drop-proof bookkeeping. *)

val of_jsonl : string -> t
(** Re-parse a {!Trace.Export.jsonl} export (either flavour; wall-clock
    [ts] fields are ignored).  Unparseable lines land in [errors]. *)

val count : iteration -> string -> int
(** Summed value of a counter within one iteration (0 if absent). *)

val total : t -> string -> int
(** Drop-proof lifetime total of a counter (0 if absent). *)

val phi_trajectory : t -> (int * float) list
(** [(iteration, Φ)] for every iteration that gauged Φ, in order. *)
