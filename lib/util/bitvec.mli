(** Growable packed bit vectors.

    Bits are stored little-endian inside 64-bit words ([Int64] arrays) so
    that the inner-product hash can operate word-wise with [popcount].
    The vector supports O(1) truncation to a shorter length, which is how
    transcripts are rewound. *)

type t

val create : unit -> t
(** Empty vector. *)

val of_bools : bool list -> t
val length : t -> int
(** Length in bits. *)

val words : t -> int
(** Number of 64-bit words covering [length] bits (ceiling). *)

val get : t -> int -> bool
val push : t -> bool -> unit
(** Append one bit. *)

val push_int : t -> bits:int -> int -> unit
(** [push_int t ~bits v] appends the [bits] low bits of [v], LSB first. *)

val push_int64 : t -> int64 -> unit
(** Append all 64 bits of the word, LSB first. *)

val truncate : t -> int -> unit
(** [truncate t n] shortens to [n] bits.  Requires [n <= length t]. *)

val word : t -> int -> int64
(** [word t i] is the [i]-th 64-bit word; bits beyond [length t] are zero. *)

val backing : t -> int64 array
(** The packed words themselves, shared rather than copied: read-only,
    and valid only until the next mutation of [t].  Holds at least
    [words t] words; every bit at or beyond [length t] is zero.  This
    is the hash kernel's input view — one call per hash instead of one
    (boxing) {!word} call per word. *)

val copy : t -> t
val equal : t -> t -> bool
val append : t -> t -> unit
(** [append dst src] appends all bits of [src] to [dst]. *)

val pp : Format.formatter -> t -> unit

val popcount : int64 -> int
(** Number of set bits of a word (exposed for the hash). *)

val parity64 : int64 -> int
(** Parity (0/1) of the set bits of a word. *)
