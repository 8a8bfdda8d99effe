(** Post-hoc diagnosis of one traced execution.

    Given a {!Timeline}, the analyzer answers the three questions a
    degraded or aborted run raises:

    + {e Where did it start?}  The first divergence: the earliest
      iteration in which the link states stopped agreeing (B* gauge
      rose, a meeting-point truncation fired) or a blame-class event was
      booked.
    + {e Whose fault was it?}  Blame attribution: the first blame-class
      event in emission order, classified as adversary noise
      ([net.corrupt]), an injected fault ([fault.*], [net.injected],
      [net.stalled]), or a hash collision ([mp.hash_collision]) — naming
      the phase, iteration, and the party or directed link involved.
    + {e Was the theory respected?}  Mechanical checks of the potential
      invariant (Lemma 4.2): Φ must rise by ~K per iteration, and the
      scheme books a [phi.stall] whenever it does not.  Every stall must
      be {e attributable} — coincide (within a one-iteration causal
      window) with booked noise, an injected fault, a collision, or
      visible recovery work (meeting-point transitions, rewinds, idle
      parties).  A stall nothing explains is an invariant violation, as
      is a counter stream that does not reconcile with the drop-proof
      totals.

    On a clean run (no noise, no faults) the analyzer reports no blame
    and zero findings — the false-positive contract the test suite
    locks. *)

type cause = Adversary_noise | Injected_fault | Hash_collision

type blame = {
  cause : cause;
  event : string;  (** counter name, e.g. ["fault.crash"] *)
  iteration : int;  (** scheme iteration; [-1] = before the first one *)
  phase : string;  (** innermost phase span, [""] outside any *)
  party : int;  (** party id for [fault.*] events, [-1] otherwise *)
  link : int;  (** directed link id for [net.*] events, [-1] otherwise *)
  round : int;  (** absolute network round for [net.*] events, [-1] otherwise *)
}

type severity = Info | Warning | Violation

type finding = { severity : severity; code : string; iteration : int; message : string }

type t = {
  iterations : int;
  stalls : int;  (** iterations that booked a [phi.stall] *)
  unexplained_stalls : int;
  first_divergence : (int * string) option;  (** iteration, reason *)
  blame : blame option;  (** first cause, if any blame-class event fired *)
  blame_counts : (string * int) list;
      (** lifetime totals of every blame-class counter that fired *)
  findings : finding list;  (** analyzer findings, in severity order *)
}

val analyze : Timeline.t -> t

val clean : t -> bool
(** No blame and no findings of severity above [Info]. *)

val violations : t -> finding list

val pp : Format.formatter -> t -> unit
(** The postmortem report, human-readable. *)

val pp_blame : Format.formatter -> blame -> unit
