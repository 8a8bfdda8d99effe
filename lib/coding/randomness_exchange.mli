(** The randomness-exchange protocol (Algorithm 5).

    On every link in parallel, the lower-id endpoint samples a uniform
    128-bit seed L, encodes it with the concatenated error-correcting
    code (Theorem 2.1) and streams the codeword, one bit per round, to
    the other endpoint.  Both then expand their (hopefully equal) seed
    through the δ-biased generator G of Lemma 2.5.

    Because the link is fully utilised during the exchange, deletions
    are seen as erasures at known positions and insertions cannot occur
    on the used direction (footnote 9), so the ECC faces only
    flips + erasures.  Corrupting one link's exchange beyond the decoding
    radius costs the adversary Θ(codeword) corruptions — the budget
    argument of §5.3.6. *)

type link_outcome = {
  lo_gen : Smallbias.Generator.t;  (** the lower endpoint's generator *)
  hi_gen : Smallbias.Generator.t;  (** the higher endpoint's generator *)
  ok : bool;  (** whether the endpoints ended up with identical seeds *)
}

val payload_bytes : int
(** 16: the 128-bit seed of {!Smallbias.Generator.of_seed}. *)

val rounds_needed : unit -> int
(** Fixed length of the exchange in rounds (the codeword length). *)

val run : ?sink:Trace.Sink.t -> Netsim.Network.t -> rng:Util.Rng.t -> link_outcome array
(** Execute the exchange on every link of the network simultaneously;
    result is indexed by edge id.  Each link expands its sent seed once,
    into [lo_gen].  When the higher end decodes exactly that seed,
    [hi_gen] is [Smallbias.Generator.fresh lo_gen]: the same generator
    without a second modulus search, yet a separate object with its own
    cursor and tables.  Otherwise [hi_gen] expands what was decoded, or,
    if decoding failed, a deterministic garbage seed made from the
    received bits.  [sink] (default disabled) receives
    one [exchange.failed] count per link whose endpoints ended up with
    different seeds ([arg] = edge id). *)
