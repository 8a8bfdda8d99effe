(** The bench regression observatory.

    Every [bench/main.exe <experiment>] run leaves a BENCH_*.json file;
    this module turns those snapshots into a trajectory.  A run is
    {!flatten}ed to name-keyed scalar metrics, partitioned by
    {!classify} into:

    - {e exact} metrics — success counts, determinism flags, trial
      statistics: pure functions of the experiment key, byte-stable
      across machines and job counts, compared {e exactly};
    - {e timed} metrics — wall clocks, rates, allocation counts:
      execution artifacts, compared within a loose relative tolerance
      (CI boxes jitter) and only in their worse direction (see {!diff});
    - {e ignored} metrics — job counts and other knobs that legitimately
      differ between runs.

    Entries append to a JSONL history file; {!diff} compares the current
    entry against its predecessor and {!render_markdown} writes the
    OBSERVATORY.md report, whose content above the
    [<!-- timing below -->] marker is itself a determinism subject (it
    contains only exact metrics). *)

type entry = {
  run : int;  (** 1-based position in the history *)
  benches : string list;  (** bench labels folded into this entry, sorted *)
  exact : (string * float) list;  (** sorted by name *)
  timed : (string * float) list;  (** sorted by name *)
}

val classify : string -> [ `Exact | `Timed | `Ignored ]
(** Partition a flattened metric name (see the module comment). *)

val flatten : label:string -> Util.Json.t -> (string * float) list
(** Every numeric (or boolean, as 0/1) scalar reachable in the
    document, named [label.path.to.field]; array elements are named by
    their ["key"]/["topology"]+["transport"]/["event"] discriminator
    field when present, else by index.  Sorted by name; ignored-class
    names are dropped. *)

val entry_of_benches : run:int -> (string * Util.Json.t) list -> entry
(** Flatten and partition one [(label, parsed document)] list. *)

type delta = {
  metric : string;
  before : float option;  (** [None]: metric is new in this run *)
  after : float option;  (** [None]: metric disappeared *)
  timed : bool;
  regressed : bool;
}

val diff : ?tolerance:float -> prev:entry -> entry -> delta list
(** [diff ~prev cur]: one delta per metric name in either entry, sorted.  Exact metrics
    regress on any change or disappearance (new metrics are fine);
    timed metrics regress only when they move the worse way: by a
    before/after magnitude ratio beyond [1 + tolerance] (default 1.5),
    or across zero.  A timed key ending in [_pct] is a percentage that
    may sit near zero and swing across it between runs of one tree (an
    overhead read as the difference of two close walls), so it gets an
    absolute tolerance instead: it regresses when it moves the worse way
    by more than 30 percentage points, sign flips included, and the
    ratio [tolerance] does not apply to it.  The worse way comes from
    the name: keys containing [per_sec] or [speedup] are
    higher-is-better, every other timed key is lower-is-better, so a
    timed metric that got faster, however much, never regresses. *)

val regressions : delta list -> delta list

(** {2 History} *)

val entry_to_jsonl : entry -> string
(** One JSON line (no trailing newline). *)

val entry_of_json : Util.Json.t -> entry option

val load_history : path:string -> entry list
(** Entries in file order; [[]] if the file does not exist.  Unparseable
    lines are skipped. *)

val append_history : ?max_entries:int -> path:string -> entry -> unit
(** Append one entry.  With [max_entries] the history is capped: after
    the append only the newest [max_entries] lines are kept (the file is
    atomically rewritten via a temp-file rename).  Retained entries keep
    their original [run] numbers, so run identity survives rotation.
    Raises [Invalid_argument] if [max_entries < 1]. *)

(** {2 Rendering} *)

val timing_marker : string
(** The literal marker line; everything above it in the rendered
    markdown is exact-only (byte-stable across job counts). *)

val render_markdown : prev:entry option -> cur:entry -> delta list -> string
(** The OBSERVATORY.md document. *)

val exact_section : string -> string
(** The prefix of a rendered document up to {!timing_marker} — the
    byte-comparison subject of the report smoke. *)
