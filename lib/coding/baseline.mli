(** Baselines for the experiments.

    - {!uncoded}: run Π directly over the noisy network ({!repetition}
      with one copy).  Any single corruption of a message bit silently
      propagates; deletions read as 0.  This is the "no protection" row
      of every comparison.
    - {!repetition}: the classic stateless defence — every transmission
      of Π is repeated 2r+1 times in consecutive rounds and the receiver
      majority-votes.  This resists substitutions at rate < r/(2r+1) per
      transmission but inflates communication by 2r+1 (a non-constant
      rate in the noise target) and, tellingly, has no mechanism against
      insertions into idle slots of a non-fully-utilised protocol, nor
      against an adversary that concentrates 2r+1 corruptions on one
      transmission.  It is the natural foil for the paper's rewind-based
      schemes. *)

type result = {
  success : bool;
  outputs : int array;
  reference : int array;
  cc : int;
  cc_pi : int;
  rate_blowup : float;
  corruptions : int;
  noise_fraction : float;
}

val uncoded : ?inputs:int array -> rng:Util.Rng.t -> Protocol.Pi.t -> Netsim.Adversary.t -> result

val repetition :
  ?inputs:int array ->
  rng:Util.Rng.t ->
  rep:int ->
  Protocol.Pi.t ->
  Netsim.Adversary.t ->
  result
(** [rep] must be odd: each Π-transmission becomes [rep] consecutive
    round-slots on the same directed link, majority-decoded (missing
    copies abstain; ties and fully-erased slots read as 0). *)
