(* SplitMix64.  Reference: Steele, Lea, Flood, "Fast splittable
   pseudorandom number generators", OOPSLA 2014. *)

type t = { mutable state : int64 }

let gamma = 0x9E3779B97F4A7C15L

let mix z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let create seed = { state = mix (Int64.of_int seed) }

let of_key s =
  (* FNV-1a over the key bytes, then mixed. *)
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h 0x100000001b3L)
    s;
  { state = mix !h }

let int64 t =
  t.state <- Int64.add t.state gamma;
  mix t.state

let split t = { state = mix (int64 t) }
let copy t = { state = t.state }

let bits t = Int64.to_int (Int64.shift_right_logical (int64 t) 34)

let int t bound =
  assert (bound > 0);
  if bound <= 1 lsl 30 then bits t mod bound
  else Int64.to_int (Int64.rem (Int64.shift_right_logical (int64 t) 1) (Int64.of_int bound))

let bool t = Int64.logand (int64 t) 1L = 1L

let float t =
  let x = Int64.to_float (Int64.shift_right_logical (int64 t) 11) in
  x *. (1. /. 9007199254740992.)

let at ~seed i = mix (Int64.add seed (Int64.mul (Int64.of_int (i + 1)) gamma))

(* In-width cells keep the row-major index the keyed streams were built
   on, so every pinned output that draws from them stays the same.  Past
   [width], Cantor-pair (row, col - width) into the bottom of the int
   range: far below every in-width index, even after a small salt
   offset, and without overflow for rows and columns below 2^30. *)
let coord ~width row col =
  if col < width then (row * width) + col
  else
    let c = col - width in
    let s = row + c in
    min_int + (s * (s + 1) / 2) + c
