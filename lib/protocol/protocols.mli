(** A library of concrete noiseless protocols Π used by the examples,
    tests and benchmarks.  All have a fixed, input-independent speaking
    order, as the coding schemes require. *)

val ring_sum : n:int -> bits:int -> Pi.t
(** On the n-cycle: a [bits]-bit token makes two laps, each party adding
    its input mod 2^bits on the first lap, the total being disseminated
    on the second.  Every party outputs Σ inputs mod 2^bits.  This is the
    quickstart workload. *)

val line_flow : n:int -> phases:int -> chat:int -> Pi.t
(** The §1.2 motivating workload on the line 0—1—…—(n−1): each phase
    sends a bit along the whole line and then parties n−2 and n−1
    exchange [chat] messages.  An early-link corruption invalidates the
    whole phase — the scenario that motivates the flag-passing and rewind
    phases.  Outputs are history digests. *)

val broadcast_tree : Topology.Graph.t -> bits:int -> Pi.t
(** BFS-tree broadcast of the root's [bits]-bit input, followed by a
    parity convergecast.  Every party outputs the root's input. *)

val pairwise_ip : Topology.Graph.t -> bits:int -> Pi.t
(** Every adjacent pair exchanges their [bits]-bit inputs; each party
    outputs the XOR over its neighbors of the GF(2) inner product
    ⟨x_u, x_v⟩ — a one-bit function sensitive to every exchanged bit. *)

val gossip_max : Topology.Graph.t -> bits:int -> Pi.t
(** Flooding maximum: in each of diameter+1 phases every directed link
    carries its endpoint's current best value bit-serially; every party
    outputs max over all inputs (mod 2^bits).  A dense, fully-utilised
    workload. *)

val convergecast_sum : Topology.Graph.t -> bits:int -> Pi.t
(** BFS-tree aggregation: leaves send their values up, inner nodes add,
    the root broadcasts the total back down.  Every party outputs
    Σ inputs mod 2^width where width = bits + ⌈log₂ n⌉.  A sparse,
    tree-structured workload. *)

val random_chatter : Topology.Graph.t -> rounds:int -> density:float -> seed:int -> Pi.t
(** A synthetic protocol with a pseudorandom (but fixed) speaking order:
    each directed link speaks in each round with probability [density].
    Message bits and outputs are avalanche digests of each party's entire
    history, so that any uncorrected corruption changes some output with
    overwhelming probability.  The universal workload for property
    tests. *)
