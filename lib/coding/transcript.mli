(** Pairwise transcripts T_{u,v} (§3.2).

    The transcript of a link, as seen by one endpoint, is the sequence of
    chunk records observed on that link.  Each chunk record holds one
    ternary symbol per scheduled transmission of the chunk on the link
    (in schedule order, both directions interleaved): the bit sent /
    received, or ∗ when an expected transmission never arrived.

    The transcript also maintains its own serialization — chunk number
    followed by the symbols, exactly the encoding the hashes of the
    meeting-points mechanism are computed over (the chunk number makes
    prefixes of different lengths hash differently, the issue footnote 11
    of the paper addresses).  Truncation (rewinding) is O(1). *)

type symbol = int
(** 0 = ∗ (missing), 2 = bit 0, 3 = bit 1. *)

val sym_star : symbol
val sym_bit : bool -> symbol
val sym_to_bit : symbol -> bool option

type t

val create : unit -> t

val length : t -> int
(** Number of chunks. *)

val version : t -> int
(** Incremented on every truncation — lets replay caches detect that a
    prefix they replayed is gone. *)

val chunks_rewound : t -> int
(** Total chunks ever removed by truncation — the "rework" this endpoint
    performed (instrumentation for the coordination experiments). *)

val push_chunk : t -> events:symbol array -> unit
(** Append the next chunk's record; its chunk number is [length t + 1]. *)

val events : t -> int -> symbol array
(** [events t i] is the record of chunk [i] (1-based). *)

val truncate : t -> int -> unit
(** Keep the first [n] chunks. *)

val corrupt : t -> chunk:int -> event:int -> unit
(** Bit-rot injection: silently flip the stored symbol at position
    [event] of chunk [chunk] (1-based; bits flip 0↔1, a ∗ becomes bit 0)
    and rebuild the serialization, so subsequent hashes are computed over
    the rotted record.  Bumps [version].  Rows shared with earlier
    {!copy} snapshots are left pristine.  Raises [Invalid_argument] when
    the coordinates are out of range. *)

val serialized : t -> Util.Bitvec.t
(** The backing bit string (valid up to [serialized_bits t] bits). *)

val serialized_bits : t -> int
val prefix_bits : t -> int -> int
(** Bit length of the serialization of the first [i] chunks. *)

val same_prefix : t -> t -> int -> bool
(** [same_prefix a b p]: the first [p] chunks of [a] and [b] serialize
    to the same bits, compared word by word.  Both ends of a link record
    the same number of events for each chunk index, so for them this is
    [equal_prefix a b >= p].  Requires [p <= length] of both. *)

val copy : t -> t
(** Deep copy (used by adversaries to evaluate hypothetical
    corruptions without touching the live state). *)

val equal_prefix : t -> t -> int
(** Longest common prefix, in chunks, of two transcripts — the G_{u,v} of
    the potential function (global instrumentation only; parties never
    call this). *)
