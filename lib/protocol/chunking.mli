(** Partitioning a protocol Π into chunks of exactly 5K transmissions
    (§3.2).

    A chunk is a fixed schedule of rounds.  Real protocol rounds are
    packed greedily while keeping at least 2m transmissions of headroom;
    the remainder is {e virtual padding}: scheduled all-zero transmissions
    that cycle through every directed link, which simultaneously (a) tops
    the chunk up to exactly 5K transmissions, and (b) guarantees the
    paper's normalisation that every party sends at least one bit to each
    neighbor in every chunk.  Padding bits really travel over the noisy
    network, so corrupting them is detectable like any other bit.

    Chunks past the end of Π are {e dummy chunks} of pure padding — the
    padding of Π "with enough dummy chunks" that the paper prescribes. *)

type slot = { pi_round : int option; src : int; dst : int }
(** One scheduled transmission inside a chunk; [pi_round = None] for
    virtual padding (the bit sent is always 0). *)

type chunk = {
  index : int;  (** 1-based chunk number *)
  rounds : slot list array;  (** schedule: [rounds.(i)] = sends of chunk round i *)
}

type t

val make : Pi.t -> k:int -> t
(** [make pi ~k] chunks [pi] with chunk size 5K where K = [k].  Requires
    [k >= m] (the paper sets K = m, m·log m or m·log log m).

    It also builds the per-link index: one pass over each real chunk's
    rounds and one over the shared dummy schedule buckets every slot by
    its link, so [make] costs O(total slots) and the per-link accessors
    below are O(1) lookups into that index.  Nothing is cached across
    calls: each [make] builds its own index. *)

val pi : t -> Pi.t
val k : t -> int
val chunk_bits : t -> int
(** = 5K. *)

val n_real : t -> int
(** |Π|: number of chunks containing real protocol rounds. *)

val max_rounds : t -> int
(** Fixed length (in network rounds) of the simulation phase: an upper
    bound on the rounds of any chunk (real or dummy). *)

val chunk : t -> int -> chunk
(** [chunk t i] for 1-based [i]; beyond [n_real] returns the dummy
    schedule with the requested index.
    @raise Invalid_argument ["Chunking.chunk: index < 1"] if [i < 1]. *)

(** {2 Per-link layout}

    The accessors below take a 1-based [chunk_index] (any index past
    [n_real] reads the dummy layout) and an [edge] id in [\[0, m)].
    @raise Invalid_argument ["Chunking.chunk: index < 1"] if
    [chunk_index < 1].
    @raise Invalid_argument ["Chunking: edge out of range"] if [edge] is
    outside [\[0, m)]. *)

val link_slots : t -> chunk_index:int -> edge:int -> (int * int * int) array
(** The transmissions of a chunk restricted to one link, in schedule
    order (round ascending, then list order within a round): (round
    offset within the chunk, src, dst).  This is the event layout of the
    pairwise transcript for that chunk.  O(1): the array is the index
    entry itself, shared by every caller — do not mutate it. *)

val link_slots_full : t -> chunk_index:int -> edge:int -> (int * int * int * bool) array
(** Like {!link_slots} with a fourth component marking virtual padding
    slots (whose honest bit is always 0) — the slots whose content an
    adversary can predict ahead of time.  Builds a fresh array, reading
    each slot's padding mark from the chunk's schedule. *)

val events_on_link : t -> chunk_index:int -> edge:int -> int
(** Number of transmissions of the chunk on the link (both directions).
    O(1). *)

val serialized_chunk_bits : t -> chunk_index:int -> edge:int -> int
(** Bits a transcript uses to store this chunk on this link:
    32 header bits + 2 bits per event. *)

val max_transcript_words : t -> horizon:int -> int
(** Upper bound (over links) on the 64-bit words of a serialized pairwise
    transcript of up to [horizon] chunks — used to lay out fixed-size
    hash-seed segments that both endpoints can compute independently.
    O(n_real · m): the dummy chunks past [n_real] share one layout, so
    they add one multiplication per link. *)
