(* Layout.  [tab] holds one block per field — the 3 int fields, then the
   2 prefix fields — of [1 + 2 * slots] words: a tag, then [slots]
   (entry, hash) pairs.  The tag is [iter lsl 3 lor n]: the block's
   first [n] pairs were filled at iteration [iter], and a block tagged
   with an earlier iteration holds nothing.  An entry is
   [arg lsl 2 lor ends]: bit 0 says the hash is valid for the lower-id
   end, bit 1 for the higher-id end.  Each end hashes at most two
   arguments per field per iteration, so a shared memo has 4 slots per
   field and a single one 2: no end ever hashes an argument twice in one
   iteration.  The hashes are stored without rot. *)

type t = {
  seeds : Seeds.t;
  lo : Transcript.t;
  hi : Transcript.t; (* [lo] itself in a single memo *)
  mutable iter : int;
  mutable rot_lo : int;
  mutable rot_hi : int;
  tab : int array;
}

let fields = Seeds.int_fields + Seeds.prefix_fields
let lower_end = 1
let higher_end = 2
let both = lower_end lor higher_end

let make seeds ~lo ~hi ~slots =
  let tab = Array.make (fields * (1 + (2 * slots))) 0 in
  { seeds; lo; hi; iter = 0; rot_lo = 0; rot_hi = 0; tab }

let shared seeds ~lo ~hi = make seeds ~lo ~hi ~slots:4
let single seeds tr = make seeds ~lo:tr ~hi:tr ~slots:2
let is_single t = t.lo == t.hi
let iter t = t.iter

let start t ~lower ~iter ~rot =
  assert (iter >= 0);
  t.iter <- iter;
  if lower || is_single t then t.rot_lo <- rot else t.rot_hi <- rot

let[@inline] stride t = Array.length t.tab / fields

(* Pairs of the block at [b] filled this iteration. *)
let[@inline] filled t b =
  let tag = t.tab.(b) in
  if tag lsr 3 = t.iter then tag land 7 else 0

(* Index of the first of the [n] filled pairs of the block at [b] whose
   argument is [v] and whose hash is valid for an end in [ends], or -1.
   Top-level and closure-free: this runs on every hash. *)
let rec find tab b n v ends i =
  if i >= n then -1
  else
    let e = tab.(b + 1 + (2 * i)) in
    if e lsr 2 = v && e land ends <> 0 then b + 1 + (2 * i) else find tab b n v ends (i + 1)

(* Keep [h] as the hash of [v] for [ends] while a slot is free. *)
let add t b v ends h =
  assert (v >= 0);
  let n = filled t b in
  if (2 * n) + 1 < stride t then begin
    t.tab.(b + 1 + (2 * n)) <- (v lsl 2) lor ends;
    t.tab.(b + 2 + (2 * n)) <- h;
    t.tab.(b) <- (t.iter lsl 3) lor (n + 1)
  end;
  h

let[@inline] rot t e = if e = lower_end then t.rot_lo else t.rot_hi

let hash_int t e field v =
  let b = field * stride t in
  let i = find t.tab b (filled t b) v both 0 in
  let h =
    if i >= 0 then t.tab.(i + 1)
    else add t b v both (Seeds.hash_int t.seeds ~iter:t.iter ~field v)
  in
  h lxor rot t e

let hash_prefix t e field p =
  let b = (Seeds.int_fields + field) * stride t in
  let n = filled t b in
  let i = find t.tab b n p e 0 in
  let h =
    if i >= 0 then t.tab.(i + 1)
    else begin
      (* The other end's hash of [p], if it made one and its prefix is
         this end's too (never in a single memo, where every prefix
         hash is the lower end's); a failed compare is not repeated,
         since the hash added below is found first from then on. *)
      let j = find t.tab b n p (e lxor both) 0 in
      if j >= 0 && Transcript.same_prefix t.lo t.hi p then begin
        t.tab.(j) <- t.tab.(j) lor e;
        t.tab.(j + 1)
      end
      else
        let tr = if e = lower_end then t.lo else t.hi in
        add t b p e
          (Seeds.hash_prefix t.seeds ~iter:t.iter ~field (Transcript.serialized tr)
             ~bits:(Transcript.prefix_bits tr p))
    end
  in
  h lxor rot t e

(* One closure pair per end, with the end a constant rather than a
   captured value. *)
let hasher t ~lower =
  if lower || is_single t then
    Meeting_points.
      {
        h_int = (fun ~field v -> hash_int t lower_end field v);
        h_prefix = (fun ~field p -> hash_prefix t lower_end field p);
      }
  else
    Meeting_points.
      {
        h_int = (fun ~field v -> hash_int t higher_end field v);
        h_prefix = (fun ~field p -> hash_prefix t higher_end field p);
      }
