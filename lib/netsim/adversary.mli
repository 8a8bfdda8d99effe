(** Adversarial noise for the synchronous network (§2.1).

    Channel alphabet: a transmission slot holds [Some bit] or [None]
    (silence, the paper's ∗).  Following the paper's *additive* adversary,
    a corruption is an addend e ∈ {1, 2} applied to the slot value in
    Z₃ under the encoding 0 ↦ 0, 1 ↦ 1, ∗ ↦ 2.  This uniformly expresses
    all three noise types: on a sent bit an addend flips it (substitution)
    or silences it (deletion); on a silent slot it conjures a bit
    (insertion).  Every nonzero addend counts as one corruption.

    Two adversary classes:
    - {e oblivious}: a noise pattern e ∈ {0,1,2}^{2m·R} fixed before the
      execution — independent of the parties' randomness (the model of
      Theorems 1.1 / §4–5).  The network reads it one round at a time:
      the pattern returns that round's nonzero entries of e;
    - {e adaptive} (non-oblivious): a strategy that observes the current
      round's genuine traffic and global progress and chooses corruptions
      on the fly (the model of Theorem 1.2 / §6), subject to a budget
      that the network enforces relative to the communication actually
      performed. *)

type phase = Exchange | Meeting_points | Flag | Simulation | Rewind | Idle

type context = {
  round : int;  (** global round number *)
  iteration : int;  (** scheme iteration, −1 outside the main loop *)
  phase : phase;
  graph : Topology.Graph.t;
  cc_sent : int;  (** transmissions sent so far (incl. this round's) *)
  corruptions : int;  (** corruptions committed so far *)
  budget_left : int;  (** further corruptions the budget allows *)
  sends : (int * bool) list;
      (** this round's true sends as (dir id, bit), in ascending dir
          order — the network's own currency; {!Topology.Graph.dir_ends}
          maps a dir back to its endpoints *)
}

type t =
  | Silent  (** noiseless channel *)
  | Oblivious of (round:int -> two_m:int -> (int * int) list)
      (** additive: [pattern ~round ~two_m] is round [round]'s row of e
          over the dirs [0, two_m): its (dir, addend) entries with addend
          in {1,2}, in ascending dir order (a round without noise is
          [[]]).  Must be a pure function. *)
  | Oblivious_fixing of (round:int -> two_m:int -> (int * int) list)
      (** the {e fixing} oblivious adversary of Remark 1: the same row
          shape, but an entry (dir, s) forces the slot's output to the Z₃
          symbol [s] (0, 1, or 2 = silence) regardless of what was sent;
          a dir without an entry is left alone.  A fixed slot counts as a
          corruption only when the forced output differs from the honest
          one — exactly the counting subtlety the remark discusses. *)
  | Adaptive of { budget : int -> int; strategy : context -> (int * int) list }
      (** [budget cc] is the corruption allowance as a function of the
          communication performed so far (e.g. [fun cc -> cc / 100]);
          [strategy ctx] returns (dir_id, addend) corruption requests for
          this round.  Requests beyond the budget are ignored. *)

(** {2 Oblivious pattern builders} *)

val iid : Util.Rng.t -> rate:float -> t
(** Each slot independently corrupted with probability [rate], addend
    uniform in {1,2}.  (The pattern is a pure function of the slot and a
    private RNG key, hence oblivious.)  A round costs one inlined draw
    per slot and allocates only its hits. *)

val iid_fixing : Util.Rng.t -> rate:float -> t
(** The fixing counterpart of {!iid}: each slot is independently forced,
    with probability [rate], to a uniform symbol in {0, 1, ∗}.  Note a
    forced slot is only a corruption when it actually changes the
    output, so the realised corruption count is lower than {!iid}'s at
    equal [rate] (Remark 1's accounting). *)

val burst : Util.Rng.t -> start_round:int -> len:int -> dirs:int list -> t
(** Corrupt every slot of the given directed links for [len] consecutive
    rounds from [start_round] — a concentrated attack on a region.  A
    round costs only its own slots. *)

val single : round:int -> dir:int -> addend:int -> t
(** One corruption, for unit tests and the §1.2 cascade example. *)

(** {2 Adaptive strategies} *)

val adaptive_link_target :
  edge_dirs:int list -> rate_denom:int -> phases:phase list -> t
(** Greedy non-oblivious attack: corrupt every transmission on the given
    directed links during the given phases, whenever the running budget
    (1/[rate_denom] of the communication so far) allows. *)

val adaptive_phase_attack : rate_denom:int -> phases:phase list -> Util.Rng.t -> t
(** Corrupt random traffic during the given phases (e.g. flag-passing
    sabotage), respecting the running budget. *)
