(** Deterministic, keyed fault schedules.

    A plan is a reproducible description of everything that goes wrong
    {e outside} the adversary's accounted noise budget: parties that
    crash (and possibly rejoin with truncated state), links that stall
    into forced silence, noise bursts that overshoot the threshold by a
    factor, and bit-rot inside stored transcripts or seed streams.

    Determinism is the design contract: every pseudorandom decision a
    plan makes (which chunk rots, which overload slot fires) is a pure
    function of the plan's [key] and the queried coordinates — two runs
    driven by the same plan see byte-identical fault schedules, at any
    job count, which is what makes degradation curves comparable.

    A plan is applied at two layers:
    - the network layer consumes {!network_hooks} (link stalls, overload
      addends, adaptive-budget scaling) inside {!Netsim.Network.commit},
      the one implementation of a network round;
    - the scheme layer queries {!crashed}/{!rejoins}/{!transcript_rot}/
      {!seed_rot} once per iteration for the party-state faults the
      network cannot express. *)

type spec =
  | Crash of { party : int; at_iteration : int; recover_at : int option }
      (** crash-stop from [at_iteration]; with [recover_at = Some j] the
          party rejoins at iteration [j] with truncated transcripts
          (crash-recovery) *)
  | Link_stall of { edge : int; from_round : int; rounds : int }
      (** both directions of [edge] are forced silent for [rounds]
          network rounds starting at absolute round [from_round] —
          silence beyond any adversary budget *)
  | Noise_overload of { factor : float; from_round : int; rounds : int; rate : float }
      (** during the window, every slot is independently hit with
          probability [min 1 (factor *. rate)] by a keyed addend, and
          adaptive adversary budgets are scaled by [factor] — the
          "budget × k" overshoot regime *)
  | Transcript_rot of { party : int; at_iteration : int }
      (** at the given iteration one stored chunk symbol of one of the
          party's link transcripts (keyed choice) is silently flipped *)
  | Seed_rot of { party : int; from_iteration : int }
      (** from the given iteration the party's consistency-check hashes
          are computed over rotted seed words (a keyed nonzero mask is
          XORed into every hash output) *)

type t

val empty : t
(** No faults; [is_empty] is true and every query is trivially false. *)

val make : key:string -> spec list -> t
val key : t -> string
val specs : t -> spec list
val is_empty : t -> bool

(** {2 Scheme-layer queries (per party × iteration)} *)

val crashed : t -> party:int -> iteration:int -> bool
(** The party is down at this iteration (crash window, before any
    [recover_at]). *)

val rejoins : t -> party:int -> iteration:int -> bool
(** True exactly at a party's recovery iteration. *)

val transcript_rot : t -> party:int -> iteration:int -> bool
val seed_rot : t -> party:int -> iteration:int -> bool

val choice : t -> salt:int -> coord:int -> bound:int -> int
(** Keyed deterministic choice in [0, bound): the plan's pseudorandom
    die, a pure function of (key, salt, coord).  Distinct
    [(salt, coord)] pairs with [0 <= salt < 8] and
    [0 <= coord < 2^59] draw distinct words.  Requires [bound > 0]. *)

(** {2 Network-layer hooks} *)

val network_hooks : t -> Netsim.Network.fault_hooks option
(** The compiled hook record for {!Netsim.Network.set_fault_hooks};
    [None] when the plan contains no network-layer faults (keeps the
    transport on its zero-overhead path). *)
