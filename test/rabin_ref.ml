(* The reference oracle for [Gf.Gf2k.is_irreducible]: Rabin's test for
   x^62 + low(x) with no sieve in front, on bit-serial arithmetic of its
   own.  62 = 2·31, so irreducibility amounts to x^(2^62) = x (mod f)
   and gcd(x^(2^31) − x, f) = gcd(x^2 − x, f) = 1. *)

let mask = (1 lsl 62) - 1

(* a·b mod x^62 + low, one bit of [b] at a time, most significant first. *)
let mul low a b =
  let acc = ref 0 in
  for i = 61 downto 0 do
    acc := if !acc land (1 lsl 61) <> 0 then ((!acc lsl 1) land mask) lxor low else !acc lsl 1;
    if (b lsr i) land 1 = 1 then acc := !acc lxor a
  done;
  !acc

(* Polynomials over GF(2) of degree <= 62 as bit patterns. *)
let degree p =
  let rec go i = if i < 0 || (p lsr i) land 1 = 1 then i else go (i - 1) in
  go 62

let rec poly_mod a b =
  let da = degree a and db = degree b in
  if da < db then a else poly_mod (a lxor (b lsl (da - db))) b

let rec gcd a b = if b = 0 then a else gcd b (poly_mod a b)

let is_irreducible low =
  low land lnot mask = 0
  &&
  let full = (1 lsl 62) lor low in
  let frob j =
    let t = ref 2 in
    for _ = 1 to j do
      t := mul low !t !t
    done;
    !t
  in
  frob 62 = 2 && gcd (frob 31 lxor 2) full = 1 && gcd (frob 1 lxor 2) full = 1
