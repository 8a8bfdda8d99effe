(* Contiguous, weighted partition of parties into the live engine's
   jitter units.

   Parties are kept in id order (contiguous ranges), and the cut points
   are chosen by prefix weight, so that a hub of degree 999 in a star
   graph does not share a unit with 999 leaves.  Weight 0 parties still
   count, so each weight is counted as [1 + w]. *)

type t = { ranges : (int * int) array; owner_of : int array }

let shards t = Array.length t.ranges
let range t s = t.ranges.(s)
let owner t party = t.owner_of.(party)

(* Cut [n] parties into [shards] non-empty contiguous ranges with
   near-equal prefix weight: shard k gets the parties whose prefix sum
   falls in [k*total/s, (k+1)*total/s).  Cuts are forced strictly
   increasing so every shard is non-empty even under extreme skew. *)
let partition ~weights ~shards =
  let n = Array.length weights in
  if n = 0 then invalid_arg "Live.Shard.partition: no parties";
  let s = max 1 (min shards n) in
  let total = Array.fold_left (fun acc w -> acc + 1 + max 0 w) 0 weights in
  let ranges = Array.make s (0, 0) in
  let cut = ref 0 in
  let prefix = ref 0 in
  for k = 0 to s - 1 do
    let lo = !cut in
    let target = (k + 1) * total / s in
    let hi = ref lo in
    while
      !hi < n
      && (!prefix + 1 + max 0 weights.(!hi) <= target || !hi < lo + 1)
      && n - (!hi + 1) >= s - (k + 1)
    do
      prefix := !prefix + 1 + max 0 weights.(!hi);
      incr hi
    done;
    (* Non-empty guarantee: take at least one party if any remain
       beyond what later shards strictly need. *)
    if !hi = lo && lo < n && n - (lo + 1) >= s - (k + 1) then begin
      prefix := !prefix + 1 + max 0 weights.(lo);
      hi := lo + 1
    end;
    if k = s - 1 then hi := n;
    ranges.(k) <- (lo, !hi);
    cut := !hi
  done;
  let owner_of = Array.make n 0 in
  Array.iteri
    (fun k (lo, hi) ->
      for p = lo to hi - 1 do
        owner_of.(p) <- k
      done)
    ranges;
  { ranges; owner_of }

let pp ppf t =
  Format.fprintf ppf "[%s]"
    (String.concat "; "
       (Array.to_list (Array.map (fun (lo, hi) -> Printf.sprintf "%d..%d" lo (hi - 1)) t.ranges)))
