(* Elements occupy bits 0..61 of a native int, so every operation below is
   unboxed.  The modulus x^62 + low(x) keeps its top term implicit. *)

(* [red.(v)] = v·x^62 mod f for a 4-bit v: folds the nibble that a
   4-bit shift pushes past x^61 back into the field. *)
type field = { m_low : int; red : int array }

let degree = 62
let mask = (1 lsl 62) - 1
let modulus_low f = f.m_low

(* a·x: bit 61 shifts out into x^62, which reduces to [m_low]. *)
let[@inline] times_x m_low a = ((a lsl 1) land mask) lxor (m_low land -((a lsr 61) land 1))

let step f a = times_x f.m_low a

let field_of m_low =
  (* x^62, x^63, x^64, x^65 reduced; red.(v) xors those picked by v. *)
  let xs = Array.make 4 m_low in
  for k = 1 to 3 do
    xs.(k) <- times_x m_low xs.(k - 1)
  done;
  let red =
    Array.init 16 (fun v ->
        let r = ref 0 in
        for k = 0 to 3 do
          if (v lsr k) land 1 = 1 then r := !r lxor xs.(k)
        done;
        !r)
  in
  { m_low; red }

(* a·nib for a 4-bit [nib], from a·x^k (k < 4) selected by mask. *)
let[@inline] pick a a1 a2 a3 nib =
  a land -(nib land 1)
  lxor (a1 land -((nib lsr 1) land 1))
  lxor (a2 land -((nib lsr 2) land 1))
  lxor (a3 land -((nib lsr 3) land 1))

(* Four-bit windows of [b], most significant first: per nibble, one
   4-bit shift of the accumulator (its top nibble reduced through [red])
   and the multiple of [a] the nibble selects: 16 branch-free steps. *)
let mul f a b =
  let a1 = times_x f.m_low a in
  let a2 = times_x f.m_low a1 in
  let a3 = times_x f.m_low a2 in
  let acc = ref (pick a a1 a2 a3 ((b lsr 60) land 3)) in
  for i = 14 downto 0 do
    let hi = !acc lsr 58 in
    acc :=
      ((!acc lsl 4) land mask)
      lxor Array.unsafe_get f.red hi
      lxor pick a a1 a2 a3 ((b lsr (4 * i)) land 15)
  done;
  !acc

let pow f a n =
  assert (n >= 0);
  let rec go acc base n =
    if n = 0 then acc
    else
      let acc = if n land 1 = 1 then mul f acc base else acc in
      go acc (mul f base base) (n lsr 1)
  in
  go 1 a n

let pow_x f i = pow f 2 i

(* --- raw polynomial arithmetic over GF(2), cold path (Rabin test).
       Polynomials of degree <= 62 as bit patterns; bit 62 usable since we
       only mask and xor. --- *)

let poly_degree p =
  if p = 0 then -1
  else begin
    let rec go i = if (p lsr i) land 1 = 1 then i else go (i - 1) in
    go 62
  end

let poly_mod a b =
  let db = poly_degree b in
  let a = ref a in
  while poly_degree !a >= db do
    a := !a lxor (b lsl (poly_degree !a - db))
  done;
  !a

let rec poly_gcd a b = if b = 0 then a else poly_gcd b (poly_mod a b)

let is_irreducible m_low =
  m_low land 1 = 1
  && m_low land lnot ((1 lsl 62) - 1) = 0
  &&
  let f = field_of m_low in
  let full = (1 lsl 62) lor m_low in
  let frob j =
    let t = ref 2 in
    for _ = 1 to j do
      t := mul f !t !t
    done;
    !t
  in
  frob 62 = 2 && poly_gcd (frob 31 lxor 2) full = 1 && poly_gcd (frob 1 lxor 2) full = 1

let make ~modulus_low =
  if not (is_irreducible modulus_low) then invalid_arg "Gf2k.make: reducible modulus";
  field_of modulus_low

let random_irreducible rng =
  let rec go () =
    let cand = (Int64.to_int (Util.Rng.int64 rng) land mask) lor 1 in
    if is_irreducible cand then cand else go ()
  in
  go ()

let default = field_of (random_irreducible (Util.Rng.create 0x5eed))

let popcount_int x =
  (* SWAR popcount; valid for non-negative inputs (≤ 62 bits). *)
  let x = x - ((x lsr 1) land 0x1555_5555_5555_5555) in
  let x = (x land 0x3333_3333_3333_3333) + ((x lsr 2) land 0x3333_3333_3333_3333) in
  let x = (x + (x lsr 4)) land 0x0F0F_0F0F_0F0F_0F0F in
  (x * 0x0101_0101_0101_0101) lsr 56 land 0x7F

let parity_int x = popcount_int x land 1
