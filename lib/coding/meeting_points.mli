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

type message = { hk : int; hp1 : int; hp2 : int; ht1 : int; ht2 : int }

val message_bits : tau:int -> int
(** Wire size of one message: 5τ. *)

val wire_bit : tau:int -> message -> int -> bool
(** [wire_bit ~tau msg t] is bit [t] (< 5τ) of the message on the wire:
    bit [t mod τ] of field [t / τ], fields in [hk, hp1, hp2, ht1, ht2]
    order. *)

val receive_bit : tau:int -> int array -> int -> unit
(** [receive_bit ~tau packed t] records that wire bit [t] arrived as 1
    in [packed], the received message packed one int per field (5 ints,
    zeroed before the rounds). *)

val decode_packed : int array -> message
(** The message a packed receive buffer holds.  Bits never recorded —
    zeros and deletions alike — decode as 0: at worst a hash mismatch,
    which is the conservative direction. *)

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
