(** The meeting-points mechanism (§3.1 consistency check, Appendix A),
    interleaved one step per scheme iteration.

    Per link each endpoint keeps the state named in Algorithm 2 —
    counter [k], transition counter [E], vote counters [mpc1], [mpc2] —
    plus the current candidate positions.  In each consistency-check
    phase the endpoints exchange five τ-bit hashes: of k, of the two
    candidate meeting points mp1 = κ⌊ℓ/κ⌋ and mp2 = mp1 − κ (where
    ℓ = |T| in chunks and κ = 2^⌈log₂ k⌉ is the current scale), and of
    the transcript prefixes at those positions.  Hash agreement between
    a local candidate and either remote candidate casts a vote; at scale
    boundaries (k a power of two) enough votes trigger a truncation to
    the common prefix, and 2E ≥ k restarts a de-synchronised process.

    The mechanism's contract (Prop. A.2 analogue, checked by tests):
    absent noise and hash collisions, two endpoints whose transcripts
    share a prefix of g chunks and differ by B = max ℓ − g chunks
    truncate both transcripts to a common prefix ≥ some common multiple
    within O(B) steps, and never truncate below the longest common
    prefix that is aligned to the deciding scale — in particular never
    more than O(B) chunks below g. *)

type status = Simulate | Meeting_points

type t

val create : unit -> t
val status : t -> status
val k : t -> int
(** The meeting-points iteration counter (0 when in sync). *)

val equal : t -> t -> bool
(** Same counters, candidates and status. *)

type message = { hk : int; hp1 : int; hp2 : int; ht1 : int; ht2 : int }

val message_bits : tau:int -> int
(** Wire size of one message: 5τ. *)

val pack : message -> Netsim.Network.Block.t -> dir:int -> unit
(** [pack msg blk ~dir] speaks [msg] on [dir] of a block of width τ and
    5 fields: field [i] of [hk, hp1, hp2, ht1, ht2] is word [i], so wire
    bit [t] (< 5τ) is bit [t mod τ] of field [t / τ].  Raises
    [Invalid_argument] unless the block has 5 fields. *)

val unpack : Netsim.Network.Block.t -> dir:int -> message
(** The message a block delivered on [dir], each field read as the 1
    bits of its word.  Bits never delivered — zeros and deletions
    alike — decode as 0: at worst a hash mismatch, which is the
    conservative direction.  Raises [Invalid_argument] unless the block
    has 5 fields. *)

(** The hash oracle a step uses, pre-seeded for (this iteration, this
    link): [h_int ~field v] for integers (field < 3), [h_prefix ~field p]
    for the serialized transcript prefix of [p] chunks (field < 2). *)
type hasher = { h_int : field:int -> int -> int; h_prefix : field:int -> int -> int }

val prepare : t -> hasher -> len:int -> message
(** Start this link's consistency-check step: increment k, recompute the
    scale and candidate positions for transcript length [len] (resetting
    a vote counter whenever its position moved), and return the outgoing
    message. *)

(** Ground-truth oracle for hash-collision detection, available only to
    a simulator holding both endpoints' transcripts.  [truth ~pos]
    answers whether the two transcripts {e really} agree on their first
    [pos] chunks ([None] = unknowable, e.g. a transcript is shorter);
    [on_collision] fires whenever a hash vote succeeded at a position
    whose ground truth is disagreement — the silent-corruption event the
    Θ(1)-size hash regime gambles on being rare. *)
type probe = { truth : pos:int -> bool option; on_collision : pos:int -> unit }

val process : t -> hasher -> ?probe:probe -> len:int -> message -> [ `Keep | `Truncate_to of int ]
(** Finish the step with the (possibly corrupted) received message.
    Updates votes / counters, decides at scale boundaries, and returns
    the truncation the caller must apply to its transcript.  Also flips
    [status] to [Simulate] when the full transcripts verifiably agree.
    [probe] (observability only) reports hash collisions. *)

val settle : t -> len:int -> unit
(** The step of a link decided without hashing: it leaves exactly the
    state {!prepare} then {!process} (verdict [`Keep]) leave when both
    ends are in [Simulate], hold identical transcripts of [len] chunks,
    and received each other's message untouched — k = E = mpc1 = mpc2
    = 0, mp1 = [len], mp2 = max 0 ([len] − 1), [Simulate].  There
    prepare takes k to 1, so κ = 1 and mp1 = [len]; the two messages
    are equal, so k agrees and the mp1 vote at full length passes.
    Only a simulator holding both transcripts can know a link is in
    this case; a deployed party hashes.  Asserts that [t] is in
    [Simulate] with k = 0, as every link is between phases. *)
