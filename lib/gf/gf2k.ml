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

let popcount_int x =
  (* SWAR popcount; valid for non-negative inputs (≤ 62 bits). *)
  let x = x - ((x lsr 1) land 0x1555_5555_5555_5555) in
  let x = (x land 0x3333_3333_3333_3333) + ((x lsr 2) land 0x3333_3333_3333_3333) in
  let x = (x + (x lsr 4)) land 0x0F0F_0F0F_0F0F_0F0F in
  (x * 0x0101_0101_0101_0101) lsr 56 land 0x7F

let parity_int x = popcount_int x land 1

(* --- raw polynomial arithmetic over GF(2), cold path (sieve tables,
       Rabin test).  Polynomials of degree <= 62 as bit patterns; bit 62
       usable since we only mask and xor. --- *)

(* A loop, not a local recursive function: that would allocate a
   closure per call, and the sieve tables take ~50k calls at module
   init. *)
let poly_degree p =
  let d = ref 62 in
  while !d >= 0 && (p lsr !d) land 1 = 0 do
    decr d
  done;
  !d

let poly_mod a b =
  let db = poly_degree b in
  let a = ref a in
  while poly_degree !a >= db do
    a := !a lxor (b lsl (poly_degree !a - db))
  done;
  !a

let rec poly_gcd a b = if b = 0 then a else poly_gcd b (poly_mod a b)

(* --- the sieve: trial division by every irreducible of degree 2..7 ---

   A polynomial's residues modulo the 39 divisors are packed side by
   side, one lane of deg(g) bits per divisor g, first fit into words of
   at most 62 bits (four words).  Taking residues is GF(2)-linear, so a
   word of packed residues is the xor of 16 lookups, one per nibble of
   the polynomial, in that word's table, and a lane reads zero exactly
   when its divisor divides the polynomial.  Nibble tables, not byte
   tables: at 256 entries each they are small blocks, while byte tables
   (2,048 entries) would be allocated straight into the major heap at
   module init, which raised perfbench's peak RSS by 0.5 MiB on every
   workload. *)

(* Whether no polynomial from [d] up to [g] (exclusive) divides [g]. *)
let rec no_factor_from g d = d >= g || (poly_mod g d <> 0 && no_factor_from g (d + 1))

let small_divisors =
  Array.of_list (List.filter (fun g -> no_factor_from g 2) (List.init (256 - 4) (( + ) 4)))

(* Divisor i's lane: word [lane_word.(i)], from bit [lane_shift.(i)]. *)
let lane_word, lane_shift =
  let word = Array.make (Array.length small_divisors) 0 in
  let shift = Array.make (Array.length small_divisors) 0 in
  let w = ref 0 and used = ref 0 in
  Array.iteri
    (fun i g ->
      if !used + poly_degree g > 62 then begin
        incr w;
        used := 0
      end;
      word.(i) <- !w;
      shift.(i) <- !used;
      used := !used + poly_degree g)
    small_divisors;
  (word, shift)

let sieve_words = lane_word.(Array.length lane_word - 1) + 1

(* Per word: [sieve], the nibble table of p ↦ packed residues of p (entry
   pos*16 + v for v·x^(4·pos)); [sieve_low], every lane's bits below its
   top bit; [sieve_high], every lane's top bit.  Each table position is
   filled by doubling: its entries below 2^b, each plus the image of bit
   b, are those from 2^b up to 2^(b+1).  Built eagerly: a top-level
   [lazy] forced on two domains at once is not safe. *)
let sieve, sieve_low, sieve_high =
  let basis = Array.make_matrix sieve_words 63 0 in
  let low = Array.make sieve_words 0 and high = Array.make sieve_words 0 in
  Array.iteri
    (fun i g ->
      let w = lane_word.(i) and top = 1 lsl (lane_shift.(i) + poly_degree g - 1) in
      for k = 0 to 62 do
        basis.(w).(k) <- basis.(w).(k) lor (poly_mod (1 lsl k) g lsl lane_shift.(i))
      done;
      low.(w) <- low.(w) lor (top - (1 lsl lane_shift.(i)));
      high.(w) <- high.(w) lor top)
    small_divisors;
  let table b =
    let t = Array.make 256 0 in
    for k = 0 to 62 do
      let pos = k / 4 * 16 and half = 1 lsl (k mod 4) in
      for v = 0 to half - 1 do
        t.(pos + half + v) <- t.(pos + v) lxor b.(k)
      done
    done;
    t
  in
  (Array.map table basis, low, high)

let packed tbl p =
  let v = ref 0 in
  for pos = 0 to 15 do
    v := !v lxor Array.unsafe_get tbl ((pos * 16) lor ((p lsr (4 * pos)) land 15))
  done;
  !v

let small_residue p i =
  (packed sieve.(lane_word.(i)) p lsr lane_shift.(i)) land ((1 lsl poly_degree small_divisors.(i)) - 1)

(* Whether a lane of [p]'s packed residues in word [w] or past it reads
   zero.  A lane of v is nonzero iff its top bit is set in (low part +
   low mask) lor v: the sum carries into the top bit from any nonzero
   low bit, and never out of the lane. *)
let rec small_factor_from p w =
  w < sieve_words
  &&
  let v = packed (Array.unsafe_get sieve w) p in
  let low = Array.unsafe_get sieve_low w and high = Array.unsafe_get sieve_high w in
  (((v land low) + low) lor v) land high <> high || small_factor_from p (w + 1)

(* Rabin's test alone, on x^(2^j) for j = 1, 31 and 62 from one run of
   62 squarings. *)
let rabin m_low =
  let f = field_of m_low in
  let t = ref 2 and t1 = ref 0 and t31 = ref 0 in
  for j = 1 to 62 do
    t := mul f !t !t;
    if j = 1 then t1 := !t;
    if j = 31 then t31 := !t
  done;
  let full = (1 lsl 62) lor m_low in
  !t = 2 && poly_gcd (!t31 lxor 2) full = 1 && poly_gcd (!t1 lxor 2) full = 1

(* x and x + 1 first: an even constant term, or an even weight
   (x^62 + low has weight 1 + popcount low). *)
let is_irreducible m_low =
  m_low land 1 = 1
  && m_low land lnot mask = 0
  && parity_int m_low = 0
  && (not (small_factor_from ((1 lsl 62) lor m_low) 0))
  && rabin m_low

let make ~modulus_low =
  if not (is_irreducible modulus_low) then invalid_arg "Gf2k.make: reducible modulus";
  field_of modulus_low

let first_irreducible cand =
  let rec go i =
    let c = cand i in
    if is_irreducible c then field_of c else go (i + 1)
  in
  go 0

let random_irreducible rng =
  modulus_low (first_irreducible (fun _ -> (Int64.to_int (Util.Rng.int64 rng) land mask) lor 1))

let default = field_of (random_irreducible (Util.Rng.create 0x5eed))
