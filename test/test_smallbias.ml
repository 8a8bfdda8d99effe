(* Tests for the δ-biased generator: determinism, random access vs
   sequential agreement, seed expansion (the G of Lemma 2.5), and an
   empirical bias check on linear tests. *)

open Smallbias

let test_deterministic () =
  let g1 = Generator.sample (Util.Rng.create 11) in
  let g2 = Generator.create ~f:(fst (Generator.seed g1)) ~s:(snd (Generator.seed g1)) in
  for _ = 1 to 50 do
    Alcotest.(check int64) "same words" (Generator.next_word g1) (Generator.next_word g2)
  done

let test_bit_at_matches_words () =
  let g = Generator.sample (Util.Rng.create 12) in
  let words = Array.init 8 (fun _ -> Generator.next_word g) in
  for i = 0 to (8 * 64) - 1 do
    let from_word = Int64.logand (Int64.shift_right_logical words.(i / 64) (i mod 64)) 1L = 1L in
    Alcotest.(check bool) (Printf.sprintf "bit %d" i) from_word (Generator.bit_at g i)
  done

let test_seek_forward () =
  let g1 = Generator.sample (Util.Rng.create 13) in
  let g2 =
    Generator.create ~f:(fst (Generator.seed g1)) ~s:(snd (Generator.seed g1))
  in
  for _ = 1 to 20 do
    ignore (Generator.next_word g1)
  done;
  Generator.seek_word g2 20;
  Alcotest.(check int64) "seek fwd = sequential" (Generator.next_word g1) (Generator.next_word g2)

let test_seek_far_and_back () =
  let g = Generator.sample (Util.Rng.create 14) in
  Generator.seek_word g 5000;
  let w5000 = Generator.next_word g in
  Generator.seek_word g 0;
  let w0 = Generator.next_word g in
  Generator.seek_word g 5000;
  Alcotest.(check int64) "far seek reproducible" w5000 (Generator.next_word g);
  Generator.seek_word g 0;
  Alcotest.(check int64) "seek back reproducible" w0 (Generator.next_word g)

let test_of_seed_deterministic () =
  let g1 = Generator.of_seed (123L, 456L) in
  let g2 = Generator.of_seed (123L, 456L) in
  Alcotest.(check bool) "same derived seed" true (Generator.seed g1 = Generator.seed g2);
  for _ = 1 to 20 do
    Alcotest.(check int64) "same stream" (Generator.next_word g1) (Generator.next_word g2)
  done

(* [seed (of_seed s)] for fixed seeds, pinned before the modulus search
   gained its sieve: [of_seed] must keep picking the first irreducible
   candidate. *)
let test_of_seed_pinned () =
  List.iter
    (fun ((a, b), (f, s)) ->
      Alcotest.(check (pair int int)) (Printf.sprintf "of_seed (%Ld, %Ld)" a b) (f, s)
        (Generator.seed (Generator.of_seed (a, b))))
    [
      ((0L, 0L), (0x1254741f599dc6f7, 0x2220a8397b1dcdaf));
      ((1L, 2L), (0x1180b23a1075b77f, 0x175835de1c9756ce));
      ((123L, 456L), (0x892b7d35732738d, 0x3bf184b8e34cb36c));
      ((-1L, -1L), (0x31e50fe7bbd6e1d, 0x24d971771b652c20));
      ((0x0BADL, 0x5EEDL), (0x28ba4f5ef6122581, 0x9f1fd9d03f0a9b4));
      ((Int64.min_int, Int64.max_int), (0x2dc892bb91e7b359, 0x2a67d7552e039ea7));
      ((0x123456789ABCDEFL, 0xFEDCBA987654321L), (0x12e180e0ac6b7a35, 0x14fb831e056ac0d4));
      ((42L, 0L), (0x181ce1ff0e4ae395, 0x2220a8397b1dcdaf));
    ]

(* [fresh g] restarts g's stream on a separate generator: same seed,
   cursor at 0, and advancing one leaves the other where it was. *)
let test_fresh_independent () =
  let g = Generator.of_seed (7L, 8L) in
  let w0 = Generator.next_word g and w1 = Generator.next_word g in
  let h = Generator.fresh g in
  Alcotest.(check bool) "same seed" true (Generator.seed h = Generator.seed g);
  Alcotest.(check int) "cursor at 0" 0 (Generator.word_index h);
  Alcotest.(check int64) "word 0" w0 (Generator.next_word h);
  Alcotest.(check int) "g's cursor untouched" 2 (Generator.word_index g);
  Alcotest.(check int64) "word 1" w1 (Generator.next_word h)

let test_of_seed_valid_modulus () =
  (* Expansion must always land on an irreducible modulus, even for
     degenerate seed bits. *)
  List.iter
    (fun (a, b) ->
      let g = Generator.of_seed (a, b) in
      let f, s = Generator.seed g in
      Alcotest.(check bool) "irreducible" true (Gf.Gf2k.is_irreducible f);
      Alcotest.(check bool) "nonzero state" true (s <> 0))
    [ (0L, 0L); (0L, 1L); (-1L, -1L); (42L, 0L) ]

let test_zero_state_rejected () =
  let f = Gf.Gf2k.modulus_low Gf.Gf2k.default in
  Alcotest.check_raises "zero state" (Invalid_argument "Generator.create: zero start state")
    (fun () -> ignore (Generator.create ~f ~s:0))

let test_streams_differ_across_seeds () =
  let g1 = Generator.sample (Util.Rng.create 15) in
  let g2 = Generator.sample (Util.Rng.create 16) in
  let differ = ref false in
  for _ = 1 to 8 do
    if Generator.next_word g1 <> Generator.next_word g2 then differ := true
  done;
  Alcotest.(check bool) "different seeds differ" true !differ

let test_empirical_balance () =
  (* Each individual output bit is a ±2^-63-biased coin over the seed; over
     one fixed seed, long output stretches should still look balanced. *)
  let g = Generator.sample (Util.Rng.create 17) in
  let ones = ref 0 in
  let words = 2000 in
  for _ = 1 to words do
    ones := !ones + Util.Bitvec.popcount (Generator.next_word g)
  done;
  let p = float_of_int !ones /. float_of_int (words * 64) in
  Alcotest.(check bool) "balanced" true (p > 0.48 && p < 0.52)

let test_empirical_bias_over_seeds () =
  (* Definition 2.4: for a fixed nonzero linear test v over the first 64
     output bits, Pr_seed[⟨v, bits⟩ = 0] must be 1/2 ± δ.  We estimate the
     probability over many random seeds and check it is near 1/2 well
     within sampling error. *)
  let rng = Util.Rng.create 18 in
  let trials = 400 in
  let tests = [ 1L; 0xFFL; Int64.min_int; -1L; 0x123456789ABCDEFL ] in
  List.iter
    (fun v ->
      let zero_count = ref 0 in
      for _ = 1 to trials do
        let g = Generator.sample rng in
        let w = Generator.next_word g in
        if Util.Bitvec.parity64 (Int64.logand v w) = 0 then incr zero_count
      done;
      let p = float_of_int !zero_count /. float_of_int trials in
      Alcotest.(check bool)
        (Printf.sprintf "linear test %Lx near 1/2 (got %.3f)" v p)
        true
        (p > 0.38 && p < 0.62))
    tests

(* The reference seek: word [i] starts at field state x^(64·i), computed
   by square-and-multiply, and its bit j is ⟨x^(64·i)·x^j, s⟩. *)
let ref_word g i =
  let f, s = Generator.seed g in
  let field = Gf.Gf2k.make ~modulus_low:f in
  let p = ref (Gf.Gf2k.pow field (Gf.Gf2k.pow_x field 64) i) in
  let w = ref 0L in
  for j = 0 to 63 do
    if Gf.Gf2k.parity_int (!p land s) = 1 then w := Int64.logor !w (Int64.shift_left 1L j);
    p := Gf.Gf2k.step field !p
  done;
  !w

let word_of_bits g i =
  let w = ref 0L in
  for j = 0 to 63 do
    if Generator.bit_at g ((64 * i) + j) then w := Int64.logor !w (Int64.shift_left 1L j)
  done;
  !w

(* Indices where 64·i overflows a native int: the seek must stay exact
   for every index up to [max_int]. *)
let test_seek_huge_indices () =
  let g = Generator.sample (Util.Rng.create 20) in
  List.iter
    (fun i ->
      Generator.seek_word g i;
      Alcotest.(check int) "cursor" i (Generator.word_index g);
      Alcotest.(check int64) (Printf.sprintf "word %d" i) (ref_word g i) (Generator.next_word g))
    [ 1 lsl 56; 1 lsl 60; max_int; (1 lsl 60) + 1; 0 ]

(* Every entry of the seek's power table, d·256^k for d < 256, k < 8
   (d < 64 in the top byte, below 2^62): a single wrong entry shows. *)
let test_seek_every_power_entry () =
  let g = Generator.sample (Util.Rng.create 23) in
  for k = 0 to 7 do
    for d = 1 to if k = 7 then 63 else 255 do
      let i = d lsl (8 * k) in
      Generator.seek_word g i;
      Alcotest.(check int64) (Printf.sprintf "word %d·256^%d" d k) (ref_word g i) (Generator.next_word g)
    done
  done

let test_seek_rejects_negative () =
  let g = Generator.sample (Util.Rng.create 21) in
  Alcotest.check_raises "negative index" (Invalid_argument "Generator.seek_word: negative index")
    (fun () -> Generator.seek_word g (-1))

(* An index whose highest nonzero byte is a random one of bytes 0..7,
   below 2^61: every row of the seek's power table gets used. *)
let random_index rng =
  let bits = min 61 (8 * (1 + Util.Rng.int rng 8)) in
  Int64.to_int (Int64.shift_right_logical (Util.Rng.int64 rng) (64 - bits))

(* Random seek sequences: far forward, back, repeated and one-step moves
   over indices in every byte range; after each seek the next two words
   must match the reference, and [bit_at] bit by bit wherever the bit
   index 64·i + 63 is a native int. *)
let prop_seek_matches_reference =
  QCheck.Test.make ~name:"seek_word + next_word = pow-based reference" ~count:40
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Util.Rng.create seed in
      let g = Generator.sample rng in
      let prev = ref 0 in
      List.for_all
        (fun _ ->
          let i =
            match Util.Rng.int rng 4 with
            | 0 -> !prev
            | 1 -> !prev + 1
            | 2 -> Util.Rng.int rng (max 1 !prev)
            | _ -> random_index rng
          in
          prev := i;
          Generator.seek_word g i;
          let w0 = Generator.next_word g in
          let w1 = Generator.next_word g in
          w0 = ref_word g i
          && (i >= 1 lsl 56 || w0 = word_of_bits g i)
          && w1 = ref_word g (i + 1)
          && Generator.word_index g = i + 2)
        (List.init 8 Fun.id))

(* The per-word window walk: the parity of the input words ANDed with
   the stream words from word [at] on, read one by one with
   [next_word]. *)
let walk_parity g words ~last ~at =
  Generator.seek_word g at;
  let acc = ref 0L in
  Array.iter (fun w -> acc := Int64.logxor !acc (Int64.logand w (Generator.next_word g))) words;
  acc := Int64.logxor !acc (Int64.logand last (Generator.next_word g));
  Util.Bitvec.parity64 !acc

(* [reduce] then [parities] (one field product per slab) against the
   window walk, slab by slab, at offsets in every byte range and at
   the two strides the hash kernel uses; neither moves the cursor. *)
let prop_inner_product_matches_words =
  QCheck.Test.make ~name:"inner_product = parity over next_word" ~count:200
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Util.Rng.create seed in
      let g = Generator.sample rng in
      let n = 1 + Util.Rng.int rng 40 in
      let words = Array.init (n - 1) (fun _ -> Util.Rng.int64 rng) in
      let x = Bytes.create (8 * (n - 1 + Util.Rng.int rng 3)) in
      Array.iteri (fun k w -> Bytes.set_int64_le x (8 * k) w) words;
      let last = Util.Rng.int64 rng in
      let last_lo = Int64.to_int last land 0xFFFF_FFFF in
      let last_hi = Int64.to_int (Int64.shift_right_logical last 32) in
      let offset = random_index rng in
      let stride = if Util.Rng.bool rng then n else 1 in
      let tau = 1 + Util.Rng.int rng 5 in
      Generator.seek_word g (Util.Rng.int rng 1000);
      let cursor = Generator.word_index g in
      let r = Generator.reduce g x ~n ~last_lo ~last_hi in
      let h = Generator.parities g r ~offset ~stride ~tau in
      Generator.word_index g = cursor
      && List.for_all
           (fun j -> (h lsr j) land 1 = walk_parity g words ~last ~at:(offset + (j * stride)))
           (List.init tau Fun.id)
      && h lsr tau = 0)

let test_parities_reject_negative_offset () =
  let g = Generator.sample (Util.Rng.create 22) in
  Alcotest.check_raises "negative offset"
    (Invalid_argument "Generator.parities: offset or stride") (fun () ->
      ignore (Generator.parities g 1 ~offset:(-1) ~stride:1 ~tau:1))

let prop_word_index_tracks =
  QCheck.Test.make ~name:"word_index tracks next_word/seek" ~count:50
    QCheck.(small_nat)
    (fun n ->
      let g = Generator.sample (Util.Rng.create 19) in
      Generator.seek_word g n;
      let i0 = Generator.word_index g in
      ignore (Generator.next_word g);
      i0 = n && Generator.word_index g = n + 1)

let () =
  Alcotest.run "smallbias"
    [
      ( "generator",
        [
          Alcotest.test_case "deterministic" `Quick test_deterministic;
          Alcotest.test_case "bit_at matches words" `Quick test_bit_at_matches_words;
          Alcotest.test_case "seek forward" `Quick test_seek_forward;
          Alcotest.test_case "seek far and back" `Quick test_seek_far_and_back;
          Alcotest.test_case "of_seed deterministic" `Quick test_of_seed_deterministic;
          Alcotest.test_case "of_seed valid modulus" `Slow test_of_seed_valid_modulus;
          Alcotest.test_case "of_seed pinned" `Quick test_of_seed_pinned;
          Alcotest.test_case "fresh is independent" `Quick test_fresh_independent;
          Alcotest.test_case "zero state rejected" `Quick test_zero_state_rejected;
          Alcotest.test_case "streams differ" `Quick test_streams_differ_across_seeds;
          Alcotest.test_case "empirical balance" `Quick test_empirical_balance;
          Alcotest.test_case "empirical bias over seeds" `Slow test_empirical_bias_over_seeds;
          QCheck_alcotest.to_alcotest prop_word_index_tracks;
          Alcotest.test_case "seek huge indices" `Quick test_seek_huge_indices;
          Alcotest.test_case "seek every power-table entry" `Quick test_seek_every_power_entry;
          Alcotest.test_case "seek rejects negative" `Quick test_seek_rejects_negative;
          QCheck_alcotest.to_alcotest prop_seek_matches_reference;
          QCheck_alcotest.to_alcotest prop_inner_product_matches_words;
          Alcotest.test_case "parities reject negative offset" `Quick
            test_parities_reject_negative_offset;
        ] );
    ]
