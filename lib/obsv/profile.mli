(** Per-phase resource breakdown of one traced execution.

    Folds a sink's span pairs into one row per span name: how many times
    the span ran, total wall time between begin/end timestamps, and —
    when the sink was created with [~profile:true] ({!Trace.Sink.create})
    — the Gc minor words allocated inside the span (inclusive of nested
    spans; zero on unprofiled sinks).  Major words are not recorded:
    where a major-GC slice lands depends on the whole run's allocation,
    not on the span it falls in.

    Rows answer the hot-path question directly: of one iteration's
    budget, how much goes to the consistency check ([phase.meeting_points])
    vs flag passing vs simulation vs rewind.  {!metrics} flattens rows
    for cross-trial aggregation through {!Runner.Trace_agg.add_metrics};
    like wall clocks, profile metrics are execution artifacts and are
    never part of a determinism contract. *)

type row = {
  name : string;  (** span name *)
  count : int;  (** completed begin/end pairs *)
  wall_s : float;  (** summed wall time inside the span *)
  minor_words : float;  (** summed Gc minor-word delta (0 unless profiled) *)
}

val of_sink : Trace.Sink.t -> row list
(** One row per span name seen in the retained window, sorted by name.
    Unmatched begins/ends (ring truncation) are skipped. *)

val metrics : row list -> (string * float) list
(** [prof.<span>.count], [prof.<span>.minor_words] and
    [prof.<span>.wall_s] per row, sorted — the shape
    {!Runner.Trace_agg.add_metrics} takes. *)

val pp : Format.formatter -> row list -> unit
(** Breakdown table, widest wall first. *)
