(** Hash-seed bookkeeping for the consistency-check phase.

    Each iteration of the scheme consumes, per link, seed material for
    five hashes (Appendix A's meeting-points messages): three hashes of
    small integers (the counter k and the two candidate positions) and
    two hashes of transcript prefixes.  Both endpoints of a link must
    carve identical, {e input-independent} segments out of their shared
    random string — in particular a segment's position may not depend on
    the current transcript length, otherwise endpoints whose transcripts
    diverged would also desynchronise their seeds.  Segments are
    therefore laid out using [wmax], the public upper bound on a
    serialized transcript's length in words.

    The same layout serves both randomness models: with a CRS one global
    stream is shared and links are distinguished by [slot]; with
    per-link exchanged seeds every link has its own stream and
    [slot = 0, slots = 1]. *)

type t

val int_fields : int
(** 3: the k counter and the two meeting-point positions. *)

val prefix_fields : int
(** 2: the two transcript-prefix hashes. *)

val make : stream:Hashing.Seed_stream.t -> tau:int -> wmax:int -> slot:int -> slots:int -> t

val hash_int : t -> iter:int -> field:int -> int -> int
(** τ-bit hash of a small integer; [field] < {!int_fields}. *)

val hash_prefix : t -> iter:int -> field:int -> Util.Bitvec.t -> bits:int -> int
(** τ-bit hash of a bit-string prefix; [field] < {!prefix_fields}.
    Requires [bits <= 64 * wmax]. *)

val prefix_bit_sensitivity : t -> iter:int -> field:int -> total_bits:int -> pos:int -> int
(** The τ-bit mask of output bits of [hash_prefix ~iter ~field _ ~bits:total_bits]
    that flip when input bit [pos] flips — the hash is GF(2)-linear, so
    h(x ⊕ e_pos) = h(x) xor this mask.  This is what a non-oblivious
    adversary (who knows the seeds) evaluates when hunting for a
    corruption that produces a hash collision (§6.1). *)
