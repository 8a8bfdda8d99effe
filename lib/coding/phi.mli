(** The potential-function formula of §4.1, on raw per-iteration fields.

    Split out of {!Potential} so that {!Scheme} — which [Potential]
    consumes through [Scheme.iter_stat], making a direct dependency
    circular — can evaluate the same proxy φ live for its per-iteration
    trace gauge.  See [potential.mli] for what the proxy observes and
    why it is sound. *)

type constants = {
  c1 : float;  (** weight of the backlog term (paper: C₁ ≥ 2) *)
  c_mp : float;  (** weight of the per-link divergence (proxy for ϕ_{u,v}) *)
  c7 : float;  (** weight of the error credit (paper: C₇ large) *)
}

val default_constants : constants

val eval :
  constants -> k:int -> m:int -> sum_g:int -> sum_b:int -> b_star:int -> corruptions:int -> float
(** φ = K/m·ΣG − C_mp·K·ΣB − C₁·K·B* + C₇·K·corruptions. *)

val stall : k:int -> float -> bool
(** [stall ~k delta]: an iteration whose Φ rose by [delta] fell short of
    Lemma 4.2's per-iteration increment K (up to a 1e-9 float
    tolerance).  The one definition of a stall: the sink's in-run
    [phi.stall] event and {!Potential.stalls} both apply it. *)
