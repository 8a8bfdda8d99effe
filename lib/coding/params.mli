(** Parameters of the coding schemes, and the four named configurations
    from the paper (see Table 1):

    - {!algorithm_1}: CRS + oblivious noise — K = m, constant-length
      hashes (Theorem 1.1 / §3–4);
    - {!algorithm_a}: no CRS — same parameters, the CRS replaced by an
      exchanged δ-biased seed (§5);
    - {!algorithm_b}: non-oblivious noise, no CRS — K = m·log m and
      Θ(log m)-bit hashes (Theorem 1.2 / §6);
    - {!algorithm_c}: non-oblivious noise with pre-shared randomness —
      K = m·log log m (Appendix B). *)

type seed_mode =
  | Crs  (** pre-shared randomness: a lazily evaluated uniform stream *)
  | Exchange  (** Algorithm 5: ECC-protected δ-biased seed exchange per link *)

type t = {
  name : string;
  k : int;  (** chunk parameter K; chunks carry 5K bits *)
  tau : int;  (** hash output length in bits *)
  seed_mode : seed_mode;
  iteration_factor : int;  (** iterations = factor · |Π| + extra *)
  extra_iterations : int;
  flag_passing : bool;  (** ablation switch: disable the flag-passing phase *)
  early_stop : bool;
      (** simulator convenience: stop once every link's common prefix
          covers |Π| — sound because from that point parties only append
          dummy chunks.  Disable to measure the fixed-length protocol. *)
}

val ceil_log2 : int -> int
(** ⌈log₂ x⌉ for x ≥ 1. *)

val algorithm_1 : ?tau:int -> Topology.Graph.t -> t
val algorithm_a : ?tau:int -> Topology.Graph.t -> t
val algorithm_b : ?tau:int -> Topology.Graph.t -> t
val algorithm_c : ?tau:int -> Topology.Graph.t -> t
