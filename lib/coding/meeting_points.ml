type status = Simulate | Meeting_points

type t = {
  mutable k : int;
  mutable e : int; (* the transition counter E of Algorithm 2 *)
  mutable mpc1 : int;
  mutable mpc2 : int;
  mutable mp1 : int;
  mutable mp2 : int;
  mutable status : status;
}

type message = { hk : int; hp1 : int; hp2 : int; ht1 : int; ht2 : int }

type hasher = { h_int : field:int -> int -> int; h_prefix : field:int -> int -> int }

let create () = { k = 0; e = 0; mpc1 = 0; mpc2 = 0; mp1 = 0; mp2 = 0; status = Simulate }

let status t = t.status
let k t = t.k
let equal (a : t) b = a = b

let message_bits ~tau = 5 * tau

(* Wire layout: the five fields, in hk, hp1, hp2, ht1, ht2 order, are
   the five words of a block of width τ, so wire bit t carries bit
   (t mod τ) of field t / τ. *)
module Block = Netsim.Network.Block

let check_fields blk fn =
  if Block.fields blk <> 5 then invalid_arg ("Meeting_points." ^ fn ^ ": block is not 5 fields")

let pack msg blk ~dir =
  check_fields blk "pack";
  Block.set blk ~dir ~field:0 msg.hk;
  Block.set blk ~dir ~field:1 msg.hp1;
  Block.set blk ~dir ~field:2 msg.hp2;
  Block.set blk ~dir ~field:3 msg.ht1;
  Block.set blk ~dir ~field:4 msg.ht2

let unpack blk ~dir =
  check_fields blk "unpack";
  {
    hk = Block.word blk ~dir ~field:0;
    hp1 = Block.word blk ~dir ~field:1;
    hp2 = Block.word blk ~dir ~field:2;
    ht1 = Block.word blk ~dir ~field:3;
    ht2 = Block.word blk ~dir ~field:4;
  }

(* κ = 2^⌈log₂ k⌉ for k ≥ 1.  Top-level loops: a local recursive
   function capturing [k] would be a closure allocated per call, and
   this runs on every link every iteration. *)
let rec scale_from kappa k = if kappa >= k then kappa else scale_from (2 * kappa) k
let scale k = scale_from 1 k

let reset_process t =
  t.k <- 0;
  t.e <- 0;
  t.mpc1 <- 0;
  t.mpc2 <- 0

let prepare t hasher ~len =
  t.k <- t.k + 1;
  let kappa = scale t.k in
  let mp1 = kappa * (len / kappa) in
  let mp2 = max 0 (mp1 - kappa) in
  (* Vote counters are tied to positions: a counter restarts whenever its
     candidate moved (scale change, truncation, or transcript growth). *)
  if mp1 <> t.mp1 then begin
    t.mp1 <- mp1;
    t.mpc1 <- 0
  end;
  if mp2 <> t.mp2 then begin
    t.mp2 <- mp2;
    t.mpc2 <- 0
  end;
  {
    hk = hasher.h_int ~field:0 t.k;
    hp1 = hasher.h_int ~field:1 t.mp1;
    hp2 = hasher.h_int ~field:2 t.mp2;
    ht1 = hasher.h_prefix ~field:0 t.mp1;
    ht2 = hasher.h_prefix ~field:1 t.mp2;
  }

type probe = { truth : pos:int -> bool option; on_collision : pos:int -> unit }

(* Does either of the peer's candidates verifiably equal my position p
   with an identical prefix? *)
let matches_position hasher probe msg p =
  let m =
    (msg.hp1 = hasher.h_int ~field:1 p && msg.ht1 = hasher.h_prefix ~field:0 p)
    || (msg.hp2 = hasher.h_int ~field:2 p && msg.ht2 = hasher.h_prefix ~field:1 p)
  in
  (* A hash vote against differing ground truth is a collision — the
     event the Θ(1)-size hash regime gambles on being rare.  Only a
     simulator with both transcripts in hand can see it. *)
  (match probe with
  | Some pr when m -> ( match pr.truth ~pos:p with Some false -> pr.on_collision ~pos:p | _ -> ())
  | _ -> ());
  m

let process t hasher ?probe ~len msg =
  let k_agrees = msg.hk = hasher.h_int ~field:0 t.k in
  let decision = ref `Keep in
  if not k_agrees then t.e <- t.e + 1
  else begin
    let m1 = matches_position hasher probe msg t.mp1
    and m2 = matches_position hasher probe msg t.mp2 in
    if m1 then t.mpc1 <- t.mpc1 + 1;
    if m2 then t.mpc2 <- t.mpc2 + 1;
    if t.k = 1 && t.mp1 = len && m1 then begin
      (* Fresh check, full-length candidate, verified equal: in sync. *)
      reset_process t;
      t.status <- Simulate
    end
  end;
  if t.k > 0 then begin
    t.status <- Meeting_points;
    let kappa = scale t.k in
    if t.k = kappa then begin
      (* Scale boundary: decide. *)
      if 2 * t.e >= t.k then reset_process t
      else begin
        let threshold = max 1 (kappa / 4) in
        if t.mpc1 >= threshold then begin
          decision := `Truncate_to t.mp1;
          reset_process t
        end
        else if t.mpc2 >= threshold then begin
          decision := `Truncate_to t.mp2;
          reset_process t
        end
      end
    end
  end;
  !decision

(* What prepare + process leave on an in-sync link whose block arrived
   untouched: prepare takes k to 1, so κ = 1 and mp1 = len; both ends
   sent equal messages, so k agrees and the mp1 vote passes at full
   length, and process resets to Simulate with [`Keep]. *)
let settle t ~len =
  assert (t.status = Simulate && t.k = 0);
  reset_process t;
  t.mp1 <- len;
  t.mp2 <- max 0 (len - 1)
