(** The potential function φ of §4.1, evaluated on execution traces.

    φ = Σ_{(u,v)∈E} (K/m · G_{u,v} − K · ϕ_{u,v}) − C₁·K·B* + C₇·K·EHC

    where G_{u,v} is the common-prefix length on a link, ϕ_{u,v} the
    per-link meeting-points potential, B* = H* − G* the global backlog
    and EHC the number of errors plus hash collisions so far.

    The simulator evaluates an {e observable proxy}: ϕ_{u,v} is replaced
    by the per-link divergence B_{u,v} (which it bounds up to constants,
    Prop. A.2), and EHC from below by the channel-corruption count (hash
    collisions are not separately observable, and they only ever make
    the credited side larger).  Two checkable consequences of Lemma 4.2
    survive the proxying, and the tests and experiment E5 verify both:

    - {e exact} on clean runs: with no errors the proxy φ increases by
      exactly K every iteration;
    - {e amortized} on noisy runs: over the whole trace φ grows by at
      least K per iteration — individual iterations may tread water
      while the meeting-points mechanism works through a backlog (the
      paper's ϕ_{u,v} has vote-counter terms that tick every iteration;
      the proxy does not see them). *)

type constants = Phi.constants = {
  c1 : float;  (** weight of the backlog term (paper: C₁ ≥ 2) *)
  c_mp : float;  (** weight of the per-link divergence (proxy for ϕ_{u,v}) *)
  c7 : float;  (** weight of the error credit (paper: C₇ large) *)
}
(** Equal to {!Phi.constants} — the formula lives there so {!Scheme} can
    gauge φ live without a dependency cycle. *)

val default_constants : constants

val phi : constants -> k:int -> m:int -> Scheme.iter_stat -> float
(** Evaluate the proxy φ on a per-iteration snapshot. *)

val increments : ?constants:constants -> k:int -> m:int -> Scheme.iter_stat list -> float list
(** Per-iteration φ deltas (length = trace length − 1). *)

val stalls : ?constants:constants -> k:int -> m:int -> Scheme.iter_stat list -> int
(** The increments that are a {!Phi.stall}: iterations where φ rose by
    less than K.  On a traced run this is the sink's [phi.stall]
    total. *)

val check_clean_exact : ?constants:constants -> k:int -> m:int -> Scheme.iter_stat list -> bool
(** On an error-free trace: every increment equals K. *)

val check_amortized : ?constants:constants -> k:int -> m:int -> Scheme.iter_stat list -> bool
(** φ(last) − φ(first) ≥ K · (trace length − 1): the amortized Lemma 4.2. *)
