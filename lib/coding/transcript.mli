(** Pairwise transcripts T_{u,v} (§3.2).

    The transcript of a link, as seen by one endpoint, is the sequence of
    chunk records observed on that link.  Each chunk record holds one
    ternary symbol per scheduled transmission of the chunk on the link
    (in schedule order, both directions interleaved): the bit sent /
    received, or ∗ when an expected transmission never arrived.

    The transcript is stored once, as its serialization — chunk number
    followed by the symbols, exactly the encoding the hashes of the
    meeting-points mechanism are computed over (the chunk number makes
    prefixes of different lengths hash differently, the issue footnote 11
    of the paper addresses) — and every reader decodes from those bits:
    a symbol in O(1), a prefix question as a word compare.  Truncation
    (rewinding) is O(1).  Each chunk carries a prefix {!stamp}, which is
    how replay checkpoints tell that the prefix they were built from is
    still current. *)

type symbol = int
(** 0 = ∗ (missing), 2 = bit 0, 3 = bit 1. *)

val sym_star : symbol
val sym_bit : bool -> symbol

type t

val create : unit -> t

val length : t -> int
(** Number of chunks. *)

val chunks_rewound : t -> int
(** Total chunks ever removed by truncation — the "rework" this endpoint
    performed (instrumentation for the coordination experiments). *)

val push_chunk : t -> events:symbol array -> len:int -> unit
(** Append the next chunk's record, the first [len] symbols of [events];
    its chunk number is [length t + 1]. *)

val event_count : t -> int -> int
(** [event_count t c] is the number of symbols in the record of chunk
    [c] (1-based).  O(1). *)

val symbol : t -> chunk:int -> event:int -> symbol
(** The symbol at position [event] (0-based) of chunk [chunk]'s record,
    decoded from the serialization.  O(1).  Raises [Invalid_argument]
    when the coordinates are out of range. *)

val truncate : t -> int -> unit
(** Keep the first [n] chunks. *)

val corrupt : t -> chunk:int -> event:int -> unit
(** Bit-rot injection: silently flip the stored symbol at position
    [event] of chunk [chunk] (1-based; bits flip 0↔1, a ∗ becomes bit 0)
    in the serialization, so subsequent hashes are computed over the
    rotted record.  Restamps chunks [chunk..length] (see {!stamp}).
    Raises [Invalid_argument] when the coordinates are out of range. *)

val serialized : t -> Util.Bitvec.t
(** The backing bit string (valid up to [serialized_bits t] bits). *)

val serialized_bits : t -> int
val prefix_bits : t -> int -> int
(** Bit length of the serialization of the first [i] chunks. *)

val symbol_offset : t -> chunk:int -> event:int -> int
(** The bit offset of symbol [event] of chunk [chunk] in the
    serialization, for [1 <= chunk <= length t + 1]: chunk [length t + 1]
    is the one a push would append next, so
    [symbol_offset t ~chunk:(length t + 1) ~event:n] is the serialized
    length after pushing a record of [n] symbols. *)

val stamp : t -> int -> int
(** [stamp t i] names the prefix of chunks 1..[i] ([0 <= i <= length]):
    it changes exactly when one of those chunks changes — a push after
    a truncation below [i] stamps the new chunk [i], and {!corrupt}
    restamps every chunk from the rotted one on — and a truncation
    that keeps chunk [i] keeps it ([stamp t 0] is always 0).  A stamp
    is never reused within one transcript, so a replay cache that
    recorded [stamp t s] knows its chunks 1..s are still current
    while [s <= length t] and the stamp still reads the same.  O(1). *)

val same_prefix : t -> t -> int -> bool
(** [same_prefix a b p]: the first [p] chunks of [a] and [b] serialize
    to the same bits, compared word by word.  Both ends of a link record
    the same number of events for each chunk index, so for them this is
    [equal_prefix a b >= p].  Requires [p <= length] of both. *)

val equal_prefix : t -> t -> int
(** Longest common prefix, in chunks, of two transcripts — the G_{u,v} of
    the potential function (global instrumentation only; parties never
    call this).  One word compare of the serializations, then a walk of
    the chunk boundaries: records of different lengths at one index
    differ. *)
