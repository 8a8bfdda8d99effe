(** One link's meeting-points hash memo.

    Within an iteration {!Meeting_points.prepare} and
    {!Meeting_points.process} hash at most two distinct arguments per
    field (k; mp1 and mp2), so repeats are served from fixed slots.  The
    two ends of a link hash the same fields with the same seeds, so when
    both ends hold one seed stream and run in one domain they can share
    one memo: a hash one end made is then served to the other.

    - An integer-field hash depends only on the argument, so it is valid
      for both ends at once.
    - A prefix-field hash depends on the end's transcript.  One end's
      hash of [p] chunks becomes valid for the other end only once
      {!Transcript.same_prefix} finds the two serialized prefixes
      identical — about one word compare per input word, against τ seed
      words per input word to hash it.

    Equal input under one seed gives an equal hash, so every message and
    verdict is the one the ends would compute alone.  Each field's slots
    are tagged with the iteration that filled them; a slot of an earlier
    iteration is free, so no end has to empty the memo, and the first
    end's hashes survive the second end's {!start}.

    The seed-rot mask stays per end: it is XORed into each hash on the
    way out, memoised or not.  The collision probe is not the memo's
    business. *)

type t

val shared : Seeds.t -> lo:Transcript.t -> hi:Transcript.t -> t
(** The memo both ends of one link use: the lower-id end reads [lo],
    the higher-id end [hi].  [Seeds.t] must be the seed stream of
    {e both} ends, and every call on the memo must come from one domain
    at a time. *)

val single : Seeds.t -> Transcript.t -> t
(** A memo one end owns alone, for a link whose ends hold different
    streams (a failed seed exchange) or run in different domains. *)

val start : t -> lower:bool -> iter:int -> rot:int -> unit
(** Begin one end's step of iteration [iter] ([lower] names the end;
    ignored by a {!single} memo), hashing under that iteration's seeds
    with seed-rot mask [rot] (0 when the end's seeds are intact). *)

val iter : t -> int
(** The iteration of the last {!start}. *)

val hasher : t -> lower:bool -> Meeting_points.hasher
(** The end's hash oracle over the memo.  Build it once per end: it
    reads the iteration and rot mask that {!start} set, and allocates
    nothing per call. *)
