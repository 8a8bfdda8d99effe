(** The event sink: a ring-buffer log of spans, counters and gauges.

    Design constraints, in order:

    + {e Zero cost when off.}  Every probe on the {!disabled} sink (the
      default everywhere) is a single branch on [enabled] — no
      allocation, no hashing, no writes.  Hot paths keep their probes
      compiled in permanently and pay only that branch.
    + {e No allocation when on.}  An enabled sink writes each event into
      parallel arrays (a ring: when full, the oldest events are
      overwritten and counted in {!dropped}), allocated in full when the
      sink is created, so nothing is allocated per event.  Each event
      name is declared once per process ({!declare}); probes carry its id, and
      the per-id side tables grow only when a declaration made after
      the sink's creation outruns them.
    + {e Determinism.}  Every event field except the wall-clock
      timestamp is a pure function of the emission sequence, so two runs
      of the same deterministic program produce byte-identical
      timing-free exports ({!Export}) at any job count.  Counter totals
      and last-gauge values are tracked outside the ring and survive
      drops. *)

type t

val create : ?capacity:int -> ?profile:bool -> unit -> t
(** An enabled sink whose ring retains the last [capacity] (default
    32768) events.  Raises [Invalid_argument] if [capacity < 1].  A
    long-lived sink reused through {!reset} allocates its ring once.

    With [~profile:true] every event additionally records the domain's
    cumulative [Gc.minor_words] at emission time (read back via
    {!alloc_words}), so a post-hoc profiler can turn span pairs into
    per-phase allocation deltas.  The read allocates nothing, so a
    profiled sink keeps the no-allocation promise and a span's delta
    counts only the code inside it.  Like wall-clock timestamps, these
    are execution artifacts: they never appear in timing-free
    exports. *)

val disabled : t
(** The shared no-op sink: every probe returns after one branch. *)

val is_enabled : t -> bool

val profiled : t -> bool
(** Whether the sink records Gc minor words per event. *)

val capacity : t -> int
(** The ring size the sink was created with. *)

val declare : string -> int
(** The process-wide id of an event name, allocated on first sight and
    the same on every sink and every domain thereafter.  Emitting
    modules declare their events once, at top level.  Safe from any
    domain: a new name takes a lock, a known one is a lock-free lookup
    in an immutable snapshot. *)

val name : int -> string
(** Inverse of {!declare} ([""] for unknown ids). *)

(** {2 Probes}

    All take declared ids and are no-ops on a disabled sink.  [iter]
    tags the event with the caller's iteration (or round) coordinate and
    [arg] with a secondary coordinate (link id, party id, position);
    [-1] — the default — means "not applicable". *)

val span_begin : t -> id:int -> iter:int -> unit
val span_end : t -> id:int -> iter:int -> unit

val count : t -> id:int -> ?iter:int -> ?arg:int -> int -> unit
(** Add to a counter (the running total is kept outside the ring). *)

val gauge : t -> id:int -> ?iter:int -> float -> unit
(** Record an instantaneous value. *)

(** {2 Reading back} *)

type event =
  | Span_begin of { name : string; iter : int; seq : int; ts : float }
  | Span_end of { name : string; iter : int; seq : int; ts : float }
  | Count of { name : string; iter : int; arg : int; value : int; seq : int; ts : float }
  | Gauge of { name : string; iter : int; value : float; seq : int; ts : float }

val seq : t -> int
(** Total events emitted over the sink's lifetime (≥ retained). *)

val dropped : t -> int
(** Events overwritten by ring wrap-around. *)

val events : t -> event list
(** The retained events, oldest first.  [seq] numbers are global, so a
    gap at the front reveals drops. *)

val iter : t -> (event -> unit) -> unit
(** Visit the retained events oldest first without materializing the
    list — same order and contents as {!events}.  Serializers
    ({!Export}) stream through this. *)

val alloc_words : t -> seq:int -> float option
(** The cumulative minor words recorded when event [seq] was emitted;
    [None] unless the sink is {!profiled} and [seq] is still retained. *)

val counter_total : t -> string -> int
(** Lifetime total of a counter (0 for unknown names); drop-proof. *)

val counter_totals : t -> (string * int) list
(** All counters with nonzero activity, sorted by name. *)

val gauge_last : t -> string -> float option
(** Most recent value of a gauge, if it ever fired; drop-proof. *)

val gauge_lasts : t -> (string * float) list
(** Last value of every gauge that fired, sorted by name. *)

val reset : t -> unit
(** Forget all events and totals, so one sink can serve consecutive
    trials. *)
