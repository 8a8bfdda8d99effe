(** Growable packed bit vectors.

    Bits are packed into unboxed 64-bit words held in one [Bytes.t]:
    word [w] (bits [64w .. 64w+63], bit [i] at position [i mod 64]) is
    stored little-endian in bytes [8w .. 8w+7], so the byte image is the
    same on every host and the inner-product hash reads it word-wise.
    Every bit at or beyond [length] is zero; the pushes rely on it to OR
    whole words into place, and none of them allocates once the capacity
    (which doubles as needed) is there.  Truncation to a shorter length,
    which is how transcripts are rewound, costs one masked word plus
    clearing the dropped words; {!set} rewrites a bit in place. *)

type t

val create : unit -> t
(** Empty vector. *)

val of_bools : bool list -> t
val length : t -> int
(** Length in bits. *)

val words : t -> int
(** Number of 64-bit words covering [length] bits (ceiling). *)

val get : t -> int -> bool
val set : t -> int -> bool -> unit
(** [set t i b] overwrites bit [i] (< [length t]) in place. *)

val push : t -> bool -> unit
(** Append one bit. *)

val push_int : t -> bits:int -> int -> unit
(** [push_int t ~bits v] appends the [bits] low bits of [v], LSB first.
    Raises [Invalid_argument] unless [0 <= bits <= Sys.int_size] (63 on
    64-bit hosts). *)

val push_int64 : t -> int64 -> unit
(** Append all 64 bits of the word, LSB first. *)

val truncate : t -> int -> unit
(** [truncate t n] shortens to [n] bits.  Requires [n <= length t]. *)

val word : t -> int -> int64
(** [word t i] is the [i]-th 64-bit word; bits beyond [length t] are zero. *)

val backing : t -> Bytes.t
(** The packed words themselves, shared rather than copied: read-only,
    and valid only until the next mutation of [t].  Word [w] is the
    little-endian 64-bit integer at byte offset [8w]; the buffer holds
    at least [words t] words, and every bit at or beyond [length t] is
    zero.  This is the hash kernel's input view — one call per hash
    instead of one (boxing) {!word} call per word. *)

val copy : t -> t
val equal : t -> t -> bool
val common_prefix : t -> t -> bits:int -> int
(** [common_prefix a b ~bits] is the length of the longest common prefix
    of [a] and [b] within their first [bits] bits: [bits] when those
    agree, whatever follows them, else the position of the first
    differing bit.  Compares whole words, about one compare per 64 bits,
    and allocates nothing.  Raises
    [Invalid_argument] unless [0 <= bits <= min (length a) (length b)]. *)

val append : t -> t -> unit
(** [append dst src] appends all bits of [src] to [dst]. *)

val popcount : int64 -> int
(** Number of set bits of a word (exposed for the hash). *)

val parity64 : int64 -> int
(** Parity (0/1) of the set bits of a word. *)
