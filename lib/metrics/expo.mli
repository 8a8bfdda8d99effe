(** Exposition: render a {!Registry.snapshot} as OpenMetrics text or as
    a one-line JSON object for JSONL streams.

    Both renderings are pure functions of the snapshot, so a snapshot
    whose count-valued metrics are deterministic serializes
    byte-identically — the property `metrics-smoke` and the `metrics`
    bench experiment assert across job and shard counts.  Metric names
    are sanitized for OpenMetrics (any character outside [[a-zA-Z0-9_:]]
    becomes [_]) and JSON strings escape per JSON; JSON keeps the
    dotted names. *)

val openmetrics : Registry.snapshot -> string
(** OpenMetrics text format: `# TYPE` lines, `_total` counters and
    gauge samples, terminated by `# EOF`. *)

val json : Registry.snapshot -> string
(** One-line JSON object [{"exact": {...}, "timed": {...}}]; counters
    are numbers, gauges floats. *)

val exact_json : Registry.snapshot -> string
(** The ["exact"] sub-object alone — the byte-comparable part. *)

val write_openmetrics : path:string -> Registry.snapshot -> unit

val append_jsonl : path:string -> Registry.snapshot -> unit
(** Append [json snapshot] as one line (creates the file if needed). *)
