(** Long random strings for seeding hash functions, addressed by 64-bit
    word index.

    Three flavours, matching the three randomness models of the paper:
    - {!uniform}: a lazily-materialised uniform string keyed by 64 bits —
      the common random string (CRS) of Algorithm 1 and the pre-shared
      randomness of Algorithm C.  Word [i] is a pure function of
      (key, i), so two parties holding the same key hold the same string
      without storing it.
    - {!biased}: a δ-biased string expanded from a 128-bit seed
      (Algorithm A / B after the randomness exchange of Algorithm 5).
    - {!explicit}: a concrete bit string (used in tests to realise
      genuinely uniform shared randomness, and to model a corrupted
      exchange where the two endpoints hold different strings). *)

type t

val uniform : key:int64 -> t
val biased : Smallbias.Generator.t -> t
val explicit : int64 array -> t
(** Out-of-range words read as zero. *)

val word : t -> int -> int64
(** [word t i] is the [i]-th 64-bit word of the string.  For δ-biased
    streams sequential access is cheapest; any other access costs one
    {!Smallbias.Generator.seek_word} (about 0.15 µs on a 2-core
    x86-64 host).  Raises [Invalid_argument] if [i < 0], on every kind
    of stream. *)

(** {2 Inner-product kernel}

    The hash of {!Ip_hash} in one call per hash: τ GF(2) inner products
    of an input against τ consecutive word-aligned seed slabs.  The
    stream kind is dispatched once per call.  A uniform stream's words
    are computed inline.  A δ-biased hash reduces the input once
    ({!Smallbias.Generator.reduce}) and then costs one field product per
    slab ({!Smallbias.Generator.parities}).  Neither function allocates
    on a uniform or a δ-biased stream.  Both raise [Invalid_argument] on
    a negative [offset], on every kind of stream. *)

val inner_products : t -> offset:int -> tau:int -> Bytes.t -> bits:int -> int
(** [inner_products t ~offset ~tau x ~bits]: bit [j] (for [j < tau]) is
    the parity of the first [bits] bits of [x] ANDed with seed words
    [offset + j*nw, offset + (j+1)*nw), where [nw = ceil (bits / 64)].
    [x] is laid out as {!Util.Bitvec.backing}: input word [w] is the
    little-endian 64-bit integer at byte offset [8w].  Bits of [x] at
    or beyond [bits] are ignored.  Raises [Invalid_argument] unless
    [0 <= bits <= 64 * (Bytes.length x / 8)]. *)

val inner_products_int : t -> offset:int -> tau:int -> int -> int
(** [inner_products_int t ~offset ~tau v]: bit [j] is the parity of the
    64-bit two's-complement [v] ANDed with seed word [offset + j]. *)
