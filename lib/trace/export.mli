(** Serialization of a {!Sink} to Chrome trace-event JSON and JSONL.

    JSONL omits wall-clock fields: it is a pure function of the emitted
    events, hence byte-identical across processes, machines, and job
    counts for a deterministic run — the determinism-check subject of
    the [trace] bench experiment and of the pinned export digests. *)

val chrome : ?timing:bool -> Sink.t -> string
(** Chrome trace-event format (load via [chrome://tracing] or Perfetto):
    an object with [traceEvents] (ph [B]/[E] for spans, [C] for counters
    and gauges), [eventCount], and [dropped].  [~timing:false] (the
    default) uses the logical sequence number as the timestamp, which
    is timing-free like {!jsonl}; [~timing:true] uses wall-clock
    microseconds relative to the first retained event, to see real
    durations in a trace viewer. *)

val jsonl : Sink.t -> string
(** One JSON object per line, one line per retained event, each with
    [seq], [kind], [name], [iter] and kind-specific fields ([arg],
    [value]).  Grep-friendly. *)

val write : path:string -> string -> unit
(** Write a serialized trace to [path] (truncating). *)
