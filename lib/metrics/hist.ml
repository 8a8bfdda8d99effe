(* Log-bucketed atomic histogram.  See hist.mli for the contract.

   Bucket layout: values 0..15 map to cells 0..15 one-to-one.  A value
   v >= 16 with top bit position b (so 2^b <= v < 2^(b+1), b >= 4)
   lands in octave (b - 4), sub-bucket (v >> (b - 3)) land 7 — the
   three bits just under the top bit — i.e. cell
   16 + (b - 4) * 8 + sub.  With b <= 62 that is at most 487. *)

let subbits = 3
let sub_count = 1 lsl subbits (* 8 *)
let first_octave = 4 (* values below 2^4 are exact *)
let bucket_count = 16 + ((62 - first_octave + 1) * sub_count)

type t = {
  cells : int Atomic.t array;
  count : int Atomic.t;
  sum : int Atomic.t;
}

let create () =
  {
    cells = Array.init bucket_count (fun _ -> Atomic.make 0);
    count = Atomic.make 0;
    sum = Atomic.make 0;
  }

let bit_length v =
  (* position of the highest set bit; v >= 1 *)
  let rec go v acc = if v <= 1 then acc else go (v lsr 1) (acc + 1) in
  go v 0

let bucket_of v =
  let v = if v < 0 then 0 else v in
  if v < 16 then v
  else
    let b = bit_length v in
    let sub = (v lsr (b - subbits)) land (sub_count - 1) in
    16 + ((b - first_octave) * sub_count) + sub

let upper_of i =
  if i < 16 then i
  else
    let oct = (i - 16) / sub_count and sub = (i - 16) mod sub_count in
    let b = oct + first_octave in
    let base = 1 lsl b in
    base + ((sub + 1) * (base lsr subbits)) - 1

let observe t v =
  let v = if v < 0 then 0 else v in
  ignore (Atomic.fetch_and_add t.cells.(bucket_of v) 1);
  ignore (Atomic.fetch_and_add t.count 1);
  ignore (Atomic.fetch_and_add t.sum v)

let count t = Atomic.get t.count
let sum t = Atomic.get t.sum

let nonzero t =
  let acc = ref [] in
  for i = bucket_count - 1 downto 0 do
    let c = Atomic.get t.cells.(i) in
    if c > 0 then acc := (upper_of i, c) :: !acc
  done;
  !acc

let lower_of i = if i <= 0 then 0 else upper_of (i - 1) + 1

(* Rank-walk with linear interpolation inside the winning cell.  Works
   off any ascending (upper_bound, count) list so snapshot consumers
   (Expo) can estimate quantiles without the live histogram. *)
let quantile_of_buckets buckets ~count q =
  if count <= 0 then 0.
  else begin
    let q = if q < 0. then 0. else if q > 1. then 1. else q in
    let target = Float.max 1. (q *. float_of_int count) in
    let rec go seen last = function
      | [] -> last
      | (up, c) :: rest ->
          if c > 0 && float_of_int (seen + c) >= target then begin
            let lo = float_of_int (lower_of (bucket_of up)) and hi = float_of_int up in
            let frac = (target -. float_of_int seen) /. float_of_int c in
            lo +. ((hi -. lo) *. frac)
          end
          else go (seen + c) (if c > 0 then float_of_int up else last) rest
    in
    go 0 0. buckets
  end

let quantile t q = quantile_of_buckets (nonzero t) ~count:(count t) q
