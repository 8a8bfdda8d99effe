(** Partitioning a protocol Π into chunks of exactly 5K transmissions
    (§3.2).

    A chunk is a fixed schedule of rounds.  Real protocol rounds are
    packed greedily while keeping at least 2m transmissions of headroom;
    the remainder is {e virtual padding}: scheduled all-zero transmissions
    that cycle through every directed link in dir-id order, which simultaneously (a) tops
    the chunk up to exactly 5K transmissions, and (b) guarantees the
    paper's normalisation that every party sends at least one bit to each
    neighbor in every chunk.  Padding bits really travel over the noisy
    network, so corrupting them is detectable like any other bit.

    Chunks past the end of Π are {e dummy chunks} of pure padding — the
    padding of Π "with enough dummy chunks" that the paper prescribes. *)

type t

val make : Pi.t -> k:int -> t
(** [make pi ~k] chunks [pi] with chunk size 5K where K = [k].  Requires
    [k >= m] (the paper sets K = m, m·log m or m·log log m).

    The chunks are laid out straight from Π's compiled schedule
    (the dir ids of [Pi.t.schedule]): [make] stores no slot lists, only the
    per-party view below, built in two passes over each real chunk's
    slots and over the shared dummy schedule.  So [make] costs
    O(total slots), and the view and per-link counts are O(1) lookups.
    Nothing is cached across calls: each [make] builds its own view. *)

val pi : t -> Pi.t
val k : t -> int
val n_real : t -> int
(** |Π|: number of chunks containing real protocol rounds. *)

val max_rounds : t -> int
(** Fixed length (in network rounds) of the simulation phase: an upper
    bound on the rounds of any chunk (real or dummy). *)

(** {2 Per-party view}

    The one walk of a chunk's schedule for a party.  For each chunk and
    party, the view lists the party's {e entries}: one per slot it sends
    or receives, ordered by round offset, then every send of the round
    before any receive, then schedule order.  Each entry carries the
    peer's index in [Graph.neighbors party], the Π round it plays (or
    padding) and its {e event index}: the slot's position on its link,
    which is where the slot lives in the pairwise transcript record of
    the chunk.  Entries are stored in flat [int] arrays, about three
    words per entry; an entry id is only meaningful for the chunk it
    came from.  Dummy chunks past [n_real] share one view. *)

val party_view : t -> chunk_index:int -> party:int -> int * int
(** [party_view t ~chunk_index ~party] is the range [\[lo, hi)] of the
    party's entry ids in that chunk.  O(1).
    @raise Invalid_argument ["Chunking: chunk_index < 1"] if
    [chunk_index < 1].
    @raise Invalid_argument ["Chunking: party out of range"] if [party]
    is outside [\[0, n)]. *)

val entry_round : t -> int -> int
(** The entry's round offset within its chunk. *)

val entry_is_send : t -> int -> bool
(** True for a send, false for a receive. *)

val entry_nbr : t -> int -> int
(** The peer, as an index into [Graph.neighbors party]. *)

val entry_event : t -> int -> int
(** The entry's position in its link's chunk record. *)

val entry_pi_round : t -> chunk_index:int -> int -> int
(** The Π round the entry plays, or [-1] for virtual padding.  Takes the
    chunk the entry came from. *)

(** {2 Per-link layout}

    The accessors below take a 1-based [chunk_index] (any index past
    [n_real] reads the dummy layout) and an [edge] id in [\[0, m)].
    @raise Invalid_argument ["Chunking: chunk_index < 1"] if
    [chunk_index < 1].
    @raise Invalid_argument ["Chunking: edge out of range"] if [edge] is
    outside [\[0, m)]. *)

val link_slots_full : t -> chunk_index:int -> edge:int -> (int * int * bool) array
(** The transmissions of a chunk restricted to one link, in schedule
    order (round ascending, then schedule order within a round): (round
    offset within the chunk, directed link id, is virtual padding) — the
    dir ids an adaptive adversary sees in its round context.  This is the
    event layout of the pairwise transcript for that chunk; padding
    slots (whose honest bit is always 0) are the slots whose content an
    adversary can predict ahead of time.  Read off one endpoint's view
    into a fresh array: O(that party's entries in the chunk). *)

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
