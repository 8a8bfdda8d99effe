(* Tests for GF(2^62) and GF(256): field axioms, irreducibility testing,
   and consistency of the fast paths against naive definitions. *)

open Gf

let rng = Util.Rng.create 0xF1E1D

let mask62 = (1 lsl 62) - 1
let rand62 () = Int64.to_int (Util.Rng.int64 rng) land mask62

(* --- GF(2^62) --- *)

let f = Gf2k.default

let test_gf62_default_irreducible () =
  Alcotest.(check bool) "default modulus irreducible" true
    (Gf2k.is_irreducible (Gf2k.modulus_low f))

let test_gf62_mul_identity () =
  for _ = 1 to 50 do
    let a = rand62 () in
    Alcotest.(check int) "a*1 = a" a (Gf2k.mul f a 1);
    Alcotest.(check int) "1*a = a" a (Gf2k.mul f 1 a);
    Alcotest.(check int) "a*0 = 0" 0 (Gf2k.mul f a 0)
  done

let test_gf62_mul_commutative () =
  for _ = 1 to 50 do
    let a = rand62 () and b = rand62 () in
    Alcotest.(check int) "ab = ba" (Gf2k.mul f a b) (Gf2k.mul f b a)
  done

let test_gf62_mul_associative () =
  for _ = 1 to 30 do
    let a = rand62 () and b = rand62 () and c = rand62 () in
    Alcotest.(check int) "(ab)c = a(bc)"
      (Gf2k.mul f (Gf2k.mul f a b) c)
      (Gf2k.mul f a (Gf2k.mul f b c))
  done

let test_gf62_distributive () =
  for _ = 1 to 30 do
    let a = rand62 () and b = rand62 () and c = rand62 () in
    Alcotest.(check int) "a(b+c) = ab+ac"
      (Gf2k.mul f a (b lxor c))
      (Gf2k.mul f a b lxor Gf2k.mul f a c)
  done

let test_gf62_step_is_mul_x () =
  for _ = 1 to 50 do
    let a = rand62 () in
    Alcotest.(check int) "step = *x" (Gf2k.mul f a 2) (Gf2k.step f a)
  done

let test_gf62_pow_x_matches_steps () =
  let p = ref 1 in
  for i = 0 to 300 do
    Alcotest.(check int) (Printf.sprintf "x^%d" i) !p (Gf2k.pow_x f i);
    p := Gf2k.step f !p
  done

let test_gf62_pow_laws () =
  let a = rand62 () in
  Alcotest.(check int) "a^0 = 1" 1 (Gf2k.pow f a 0);
  Alcotest.(check int) "a^1 = a" a (Gf2k.pow f a 1);
  Alcotest.(check int) "a^5 = a^2 * a^3"
    (Gf2k.mul f (Gf2k.pow f a 2) (Gf2k.pow f a 3))
    (Gf2k.pow f a 5)

let test_gf62_fermat () =
  (* Nonzero elements form a group of order 2^62 - 1: a^(2^62) = a, which
     we check via 62 squarings. *)
  let a = rand62 () in
  let a = if a = 0 then 1 else a in
  let t = ref a in
  for _ = 1 to 62 do
    t := Gf2k.mul f !t !t
  done;
  Alcotest.(check int) "a^(2^62) = a" a !t

let test_gf62_reducible_rejected () =
  (* Low bits 0 (f = x^62, divisible by x) must fail; even-weight
     polynomials are divisible by (x + 1). *)
  Alcotest.(check bool) "x^62 reducible" false (Gf2k.is_irreducible 0);
  Alcotest.(check bool) "no constant term" false (Gf2k.is_irreducible 6);
  Alcotest.(check bool) "even weight reducible" false (Gf2k.is_irreducible 1)

let test_gf62_random_irreducible () =
  let r = Util.Rng.create 77 in
  for _ = 1 to 3 do
    let m = Gf2k.random_irreducible r in
    Alcotest.(check bool) "sampled modulus irreducible" true (Gf2k.is_irreducible m);
    Alcotest.(check int) "odd constant term" 1 (m land 1)
  done

let test_gf62_make_rejects_reducible () =
  Alcotest.check_raises "make rejects x^62" (Invalid_argument "Gf2k.make: reducible modulus")
    (fun () -> ignore (Gf2k.make ~modulus_low:0))

let test_popcount_int () =
  Alcotest.(check int) "zero" 0 (Gf2k.popcount_int 0);
  Alcotest.(check int) "all 62 bits" 62 (Gf2k.popcount_int ((1 lsl 62) - 1));
  Alcotest.(check int) "0xFF" 8 (Gf2k.popcount_int 0xFF);
  for _ = 1 to 200 do
    let x = rand62 () in
    let naive = ref 0 in
    for i = 0 to 61 do
      if (x lsr i) land 1 = 1 then incr naive
    done;
    Alcotest.(check int) "matches naive" !naive (Gf2k.popcount_int x)
  done

let test_parity_int () =
  Alcotest.(check int) "even" 0 (Gf2k.parity_int 0b11);
  Alcotest.(check int) "odd" 1 (Gf2k.parity_int 0b111)

let prop_gf62_mul_linear_in_xor =
  QCheck.Test.make ~name:"gf62 mul is GF(2)-linear" ~count:100
    QCheck.(triple int int int)
    (fun (a, b, c) ->
      let m x = abs x land ((1 lsl 62) - 1) in
      let a = m a and b = m b and c = m c in
      Gf2k.mul f (a lxor b) c = Gf2k.mul f a c lxor Gf2k.mul f b c)

(* The product by definition, one bit of [b] at a time (most significant
   first, 62 shift-and-add steps): the oracle for the 4-bit-window
   [Gf2k.mul]. *)
let ref_mul f a b =
  let m = Gf2k.modulus_low f in
  let acc = ref 0 in
  for i = 61 downto 0 do
    acc := if !acc land (1 lsl 61) <> 0 then ((!acc lsl 1) land mask62) lxor m else !acc lsl 1;
    if (b lsr i) land 1 = 1 then acc := !acc lxor a
  done;
  !acc

(* Operands that stress the window's edges: 0, 1, all ones, and values
   with bits 58..61 set (the nibble the reduction table folds back). *)
let edge_operand rng =
  match Util.Rng.int rng 6 with
  | 0 -> 0
  | 1 -> 1
  | 2 -> mask62
  | 3 -> (0xF lsl 58) lor (Int64.to_int (Util.Rng.int64 rng) land ((1 lsl 58) - 1))
  | 4 -> 0xF lsl 58
  | _ -> Int64.to_int (Util.Rng.int64 rng) land mask62

let prop_gf62_mul_matches_bit_serial =
  QCheck.Test.make ~name:"gf62 mul = bit-serial reference (random fields)" ~count:200
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Util.Rng.create seed in
      let f = Gf2k.make ~modulus_low:(Gf2k.random_irreducible rng) in
      List.for_all
        (fun _ ->
          let a = edge_operand rng and b = edge_operand rng in
          Gf2k.mul f a b = ref_mul f a b)
        (List.init 20 Fun.id))

(* --- the irreducibility sieve against Rabin's test alone --- *)

(* Carry-less product of two GF(2) polynomials whose degrees sum to at
   most 62. *)
let clmul a b =
  let r = ref 0 in
  for i = 0 to 62 do
    if (b lsr i) land 1 = 1 then r := !r lxor (a lsl i)
  done;
  !r

(* A random polynomial of degree exactly [d] with constant term 1. *)
let poly_of_degree rng d =
  if d = 0 then 1
  else (Int64.to_int (Util.Rng.int64 rng) land ((1 lsl d) - 1)) lor (1 lsl d) lor 1

let low62 full = full land mask62

(* Reducible degree-62 polynomials whose factors the sieve may not see:
   products of small irreducibles (topped up by a random factor), x + 1
   times a degree-61 polynomial, and squares of degree-31 ones. *)
let constructed_reducible rng =
  match Util.Rng.int rng 3 with
  | 0 ->
      let small () = Gf2k.small_divisors.(Util.Rng.int rng (Array.length Gf2k.small_divisors)) in
      let rec go p =
        let g = small () and d = Rabin_ref.degree p in
        if d + Rabin_ref.degree g <= 62 && Util.Rng.int rng 4 > 0 then go (clmul p g)
        else clmul p (poly_of_degree rng (62 - d))
      in
      low62 (go (small ()))
  | 1 -> low62 (clmul 0b11 (poly_of_degree rng 61))
  | _ ->
      let h = poly_of_degree rng 31 in
      low62 (clmul h h)

let prop_irreducible_matches_rabin =
  QCheck.Test.make ~name:"is_irreducible = sieve-free Rabin (random odd candidates)" ~count:3000
    QCheck.int64
    (fun x ->
      let cand = (Int64.to_int x land mask62) lor 1 in
      Gf2k.is_irreducible cand = Rabin_ref.is_irreducible cand)

let prop_constructed_reducibles_rejected =
  QCheck.Test.make ~name:"constructed reducibles rejected by both tests" ~count:1000
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let cand = constructed_reducible (Util.Rng.create seed) in
      (not (Gf2k.is_irreducible cand)) && not (Rabin_ref.is_irreducible cand))

(* The divisors are every irreducible of degree 2..7, and the packed
   tables give every divisor's residue of every nibble at every position
   (so, by linearity, of every polynomial of degree <= 62): one flipped
   table bit fails here. *)
let test_sieve_tables () =
  let irreducible g =
    List.for_all (fun d -> Rabin_ref.poly_mod g d <> 0) (List.init (g - 2) (fun i -> i + 2))
  in
  Alcotest.(check (list int)) "divisors" (List.filter irreducible (List.init 252 (fun i -> i + 4)))
    (Array.to_list Gf2k.small_divisors);
  Alcotest.(check int) "39 divisors" 39 (Array.length Gf2k.small_divisors);
  let bad = ref 0 in
  Array.iteri
    (fun i g ->
      for pos = 0 to 15 do
        for v = 0 to if pos = 15 then 7 else 15 do
          let p = v lsl (4 * pos) in
          if Gf2k.small_residue p i <> Rabin_ref.poly_mod p g then incr bad
        done
      done)
    Gf2k.small_divisors;
  Alcotest.(check int) "table entries off" 0 !bad

(* --- GF(256) --- *)

let test_gf256_mul_table_vs_naive () =
  (* Naive carry-less multiply mod 0x11D. *)
  let naive a b =
    let acc = ref 0 in
    for i = 7 downto 0 do
      acc := !acc lsl 1;
      if !acc land 0x100 <> 0 then acc := !acc lxor 0x11D;
      if (b lsr i) land 1 = 1 then acc := !acc lxor a
    done;
    !acc
  in
  for _ = 1 to 500 do
    let a = Util.Rng.int rng 256 and b = Util.Rng.int rng 256 in
    Alcotest.(check int) "table mul = naive" (naive a b) (Gf256.mul a b)
  done

let test_gf256_inverse () =
  for a = 1 to 255 do
    Alcotest.(check int) "a * a^-1 = 1" 1 (Gf256.mul a (Gf256.inv a))
  done

let test_gf256_div () =
  for _ = 1 to 200 do
    let a = Util.Rng.int rng 256 and b = 1 + Util.Rng.int rng 255 in
    Alcotest.(check int) "(a/b)*b = a" a (Gf256.mul (Gf256.div a b) b)
  done

let test_gf256_alpha_primitive () =
  (* alpha generates all 255 nonzero elements. *)
  let seen = Array.make 256 false in
  let x = ref 1 in
  for _ = 0 to 254 do
    seen.(!x) <- true;
    x := Gf256.mul !x Gf256.alpha
  done;
  let count = Array.fold_left (fun a b -> if b then a + 1 else a) 0 seen in
  Alcotest.(check int) "255 distinct powers" 255 count

let test_gf256_pow () =
  Alcotest.(check int) "a^0" 1 (Gf256.pow 5 0);
  Alcotest.(check int) "0^3" 0 (Gf256.pow 0 3);
  Alcotest.(check int) "a^3 = a*a*a" (Gf256.mul 7 (Gf256.mul 7 7)) (Gf256.pow 7 3)

let test_gf256_alpha_pow_negative () =
  Alcotest.(check int) "alpha^-1 * alpha = 1" 1 (Gf256.mul (Gf256.alpha_pow (-1)) Gf256.alpha);
  Alcotest.(check int) "alpha^255 = 1" 1 (Gf256.alpha_pow 255);
  Alcotest.(check int) "alpha^0 = 1" 1 (Gf256.alpha_pow 0)

let test_gf256_log_exp_roundtrip () =
  for a = 1 to 255 do
    Alcotest.(check int) "alpha^(log a) = a" a (Gf256.alpha_pow (Gf256.log a))
  done

let test_gf256_div_by_zero () =
  Alcotest.check_raises "div by zero" Division_by_zero (fun () -> ignore (Gf256.div 5 0))

let () =
  Alcotest.run "gf"
    [
      ( "gf2k",
        [
          Alcotest.test_case "default irreducible" `Quick test_gf62_default_irreducible;
          Alcotest.test_case "mul identity" `Quick test_gf62_mul_identity;
          Alcotest.test_case "mul commutative" `Quick test_gf62_mul_commutative;
          Alcotest.test_case "mul associative" `Quick test_gf62_mul_associative;
          Alcotest.test_case "distributive" `Quick test_gf62_distributive;
          Alcotest.test_case "step = mul x" `Quick test_gf62_step_is_mul_x;
          Alcotest.test_case "pow_x matches steps" `Quick test_gf62_pow_x_matches_steps;
          Alcotest.test_case "pow laws" `Quick test_gf62_pow_laws;
          Alcotest.test_case "fermat" `Quick test_gf62_fermat;
          Alcotest.test_case "reducible rejected" `Quick test_gf62_reducible_rejected;
          Alcotest.test_case "random irreducible" `Slow test_gf62_random_irreducible;
          Alcotest.test_case "make rejects reducible" `Quick test_gf62_make_rejects_reducible;
          Alcotest.test_case "popcount_int" `Quick test_popcount_int;
          Alcotest.test_case "parity_int" `Quick test_parity_int;
          QCheck_alcotest.to_alcotest prop_gf62_mul_linear_in_xor;
          QCheck_alcotest.to_alcotest prop_gf62_mul_matches_bit_serial;
          Alcotest.test_case "sieve tables" `Quick test_sieve_tables;
          QCheck_alcotest.to_alcotest prop_irreducible_matches_rabin;
          QCheck_alcotest.to_alcotest prop_constructed_reducibles_rejected;
        ] );
      ( "gf256",
        [
          Alcotest.test_case "mul vs naive" `Quick test_gf256_mul_table_vs_naive;
          Alcotest.test_case "inverses" `Quick test_gf256_inverse;
          Alcotest.test_case "division" `Quick test_gf256_div;
          Alcotest.test_case "alpha primitive" `Quick test_gf256_alpha_primitive;
          Alcotest.test_case "pow" `Quick test_gf256_pow;
          Alcotest.test_case "alpha_pow negative" `Quick test_gf256_alpha_pow_negative;
          Alcotest.test_case "log/exp roundtrip" `Quick test_gf256_log_exp_roundtrip;
          Alcotest.test_case "div by zero" `Quick test_gf256_div_by_zero;
        ] );
    ]
