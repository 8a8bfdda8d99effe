(* Tests for seed streams and the inner-product hash: determinism,
   linearity, and the 2^-τ collision bound of Lemma 2.3 (checked
   empirically for uniform and δ-biased seeds — the δ-biased case is the
   content of Lemma 2.6). *)

open Hashing

let mk_input rng len =
  let v = Util.Bitvec.create () in
  for _ = 1 to len do
    Util.Bitvec.push v (Util.Rng.bool rng)
  done;
  v

let test_uniform_stream_pure () =
  let s = Seed_stream.uniform ~key:42L in
  Alcotest.(check int64) "pure" (Seed_stream.word s 7) (Seed_stream.word s 7);
  Alcotest.(check bool) "varies" true (Seed_stream.word s 7 <> Seed_stream.word s 8)

let test_explicit_stream () =
  let s = Seed_stream.explicit [| 1L; 2L |] in
  Alcotest.(check int64) "word 0" 1L (Seed_stream.word s 0);
  Alcotest.(check int64) "word 1" 2L (Seed_stream.word s 1);
  Alcotest.(check int64) "out of range" 0L (Seed_stream.word s 2)

let test_biased_stream_matches_generator () =
  let g1 = Smallbias.Generator.sample (Util.Rng.create 5) in
  let f, st = Smallbias.Generator.seed g1 in
  let g2 = Smallbias.Generator.create ~f ~s:st in
  let stream = Seed_stream.biased g2 in
  let direct = Array.init 10 (fun _ -> Smallbias.Generator.next_word g1) in
  (* Access out of order to exercise seeking and caching. *)
  Alcotest.(check int64) "word 5" direct.(5) (Seed_stream.word stream 5);
  Alcotest.(check int64) "word 0" direct.(0) (Seed_stream.word stream 0);
  Alcotest.(check int64) "word 9" direct.(9) (Seed_stream.word stream 9);
  Alcotest.(check int64) "word 5 cached" direct.(5) (Seed_stream.word stream 5)

let test_hash_deterministic () =
  let rng = Util.Rng.create 1 in
  let x = mk_input rng 300 in
  let s = Seed_stream.uniform ~key:9L in
  Alcotest.(check int) "same hash" (Ip_hash.hash s ~offset:0 ~tau:10 x)
    (Ip_hash.hash s ~offset:0 ~tau:10 x)

let test_hash_equal_inputs_equal_hashes () =
  let rng = Util.Rng.create 2 in
  let x = mk_input rng 500 in
  let y = Util.Bitvec.copy x in
  let s = Seed_stream.uniform ~key:10L in
  Alcotest.(check int) "copies hash equal" (Ip_hash.hash s ~offset:3 ~tau:12 x)
    (Ip_hash.hash s ~offset:3 ~tau:12 y)

let test_hash_offset_changes_hash () =
  let rng = Util.Rng.create 3 in
  let x = mk_input rng 500 in
  let s = Seed_stream.uniform ~key:11L in
  Alcotest.(check bool) "different offsets differ" true
    (Ip_hash.hash s ~offset:0 ~tau:16 x <> Ip_hash.hash s ~offset:1000 ~tau:16 x)

let test_hash_range () =
  let rng = Util.Rng.create 4 in
  let s = Seed_stream.uniform ~key:12L in
  for _ = 1 to 50 do
    let x = mk_input rng (1 + Util.Rng.int rng 200) in
    let h = Ip_hash.hash s ~offset:0 ~tau:6 x in
    Alcotest.(check bool) "tau bits" true (h >= 0 && h < 64)
  done

let test_hash_empty_input () =
  let s = Seed_stream.uniform ~key:13L in
  Alcotest.(check int) "empty hashes to 0" 0 (Ip_hash.hash s ~offset:0 ~tau:8 (Util.Bitvec.create ()))

let test_hash_linearity () =
  (* Inner-product hash is GF(2)-linear: h(x xor y) = h(x) xor h(y) for
     same-length inputs with the same seed. *)
  let rng = Util.Rng.create 6 in
  let s = Seed_stream.uniform ~key:14L in
  for _ = 1 to 20 do
    let len = 64 + Util.Rng.int rng 300 in
    let x = mk_input rng len and y = mk_input rng len in
    let xy = Util.Bitvec.create () in
    for i = 0 to len - 1 do
      Util.Bitvec.push xy (Util.Bitvec.get x i <> Util.Bitvec.get y i)
    done;
    Alcotest.(check int) "linear"
      (Ip_hash.hash s ~offset:0 ~tau:16 x lxor Ip_hash.hash s ~offset:0 ~tau:16 y)
      (Ip_hash.hash s ~offset:0 ~tau:16 xy)
  done

let collision_rate mk_stream ~tau ~trials =
  (* Estimate Pr[h(x) = h(y)] for a fixed pair x ≠ y over random seeds. *)
  let rng = Util.Rng.create 7 in
  let x = mk_input rng 256 in
  let y = Util.Bitvec.copy x in
  (* Flip one bit so inputs differ. *)
  let y' = Util.Bitvec.create () in
  for i = 0 to Util.Bitvec.length y - 1 do
    Util.Bitvec.push y' (if i = 100 then not (Util.Bitvec.get y i) else Util.Bitvec.get y i)
  done;
  let collisions = ref 0 in
  for t = 1 to trials do
    let s = mk_stream t in
    if Ip_hash.hash s ~offset:0 ~tau x = Ip_hash.hash s ~offset:0 ~tau y' then incr collisions
  done;
  float_of_int !collisions /. float_of_int trials

let test_collision_rate_uniform () =
  (* τ = 2 ⇒ collision probability exactly 1/4 (Lemma 2.3). *)
  let p = collision_rate (fun t -> Seed_stream.uniform ~key:(Int64.of_int (t * 7919))) ~tau:2 ~trials:2000 in
  Alcotest.(check bool) (Printf.sprintf "rate near 1/4 (got %.3f)" p) true (p > 0.2 && p < 0.3)

let test_collision_rate_biased () =
  (* Lemma 2.6: with δ-biased seeds the collision rate is within δ of the
     uniform case; empirically indistinguishable from 1/4 at τ = 2. *)
  let seeds = Util.Rng.create 8 in
  let p =
    collision_rate
      (fun _ -> Seed_stream.biased (Smallbias.Generator.sample seeds))
      ~tau:2 ~trials:2000
  in
  Alcotest.(check bool) (Printf.sprintf "rate near 1/4 (got %.3f)" p) true (p > 0.2 && p < 0.3)

let test_collision_rate_drops_with_tau () =
  let p8 = collision_rate (fun t -> Seed_stream.uniform ~key:(Int64.of_int (t * 104729))) ~tau:8 ~trials:2000 in
  Alcotest.(check bool) (Printf.sprintf "tau=8 rate small (got %.4f)" p8) true (p8 < 0.02)

let test_hash_int () =
  let s = Seed_stream.uniform ~key:15L in
  Alcotest.(check int) "pure" (Ip_hash.hash_int s ~offset:0 ~tau:8 123)
    (Ip_hash.hash_int s ~offset:0 ~tau:8 123);
  Alcotest.(check bool) "values differ" true
    (Ip_hash.hash_int s ~offset:0 ~tau:16 123 <> Ip_hash.hash_int s ~offset:0 ~tau:16 124);
  Alcotest.(check int) "zero hashes to zero" 0 (Ip_hash.hash_int s ~offset:0 ~tau:8 0)

let test_words_cost () =
  Alcotest.(check int) "cost" 80 (Ip_hash.words_cost ~tau:8 ~max_input_words:10);
  Alcotest.(check int) "cost of empty input" 8 (Ip_hash.words_cost ~tau:8 ~max_input_words:0)

let prop_prefix_sensitivity =
  (* Hashes of a string and of a strict prefix may collide only with small
     probability over seeds — but note h(x) = h(x ∘ 0) structurally; we
     only test prefixes that remove a set bit. *)
  QCheck.Test.make ~name:"prefix with removed one-bit usually differs" ~count:100
    QCheck.small_nat (fun salt ->
      let x = Util.Bitvec.create () in
      for _ = 1 to 100 do
        Util.Bitvec.push x true
      done;
      let y = Util.Bitvec.copy x in
      Util.Bitvec.truncate y 99;
      let s = Seed_stream.uniform ~key:(Int64.of_int (salt + 1)) in
      (* τ = 16: collision chance 2^-16 per trial; over 100 trials the
         failure chance is ~0.2%. We allow collision (return true) but
         count mismatches dominating. *)
      Ip_hash.hash s ~offset:0 ~tau:16 x <> Ip_hash.hash s ~offset:0 ~tau:16 y
      || Ip_hash.hash s ~offset:64 ~tau:16 x <> Ip_hash.hash s ~offset:64 ~tau:16 y)

(* ---------- the kernel against a per-word reference ----------

   [ref_hash_prefix] / [ref_hash_int] are the straightforward per-word
   loops of Definition 2.2: one [Seed_stream.word] and one
   [Bitvec.word] per seed word, boxed [Int64] arithmetic throughout.
   The library kernel ([Seed_stream.inner_products], behind [Ip_hash])
   must agree with them bit for bit on every stream kind. *)

let ref_hash_prefix stream ~offset ~tau x ~bits =
  let nw = (bits + 63) / 64 in
  let tail = bits mod 64 in
  let tail_mask = if tail = 0 then -1L else Int64.sub (Int64.shift_left 1L tail) 1L in
  let out = ref 0 in
  for j = 0 to tau - 1 do
    let acc = ref 0L in
    let base = offset + (j * max 1 nw) in
    for w = 0 to nw - 1 do
      let xw = Util.Bitvec.word x w in
      let xw = if w = nw - 1 then Int64.logand xw tail_mask else xw in
      acc := Int64.logxor !acc (Int64.logand xw (Seed_stream.word stream (base + w)))
    done;
    if Util.Bitvec.parity64 !acc = 1 then out := !out lor (1 lsl j)
  done;
  !out

let ref_hash_int stream ~offset ~tau v =
  let x = Int64.of_int v in
  let out = ref 0 in
  for j = 0 to tau - 1 do
    if Util.Bitvec.parity64 (Int64.logand x (Seed_stream.word stream (offset + j))) = 1 then
      out := !out lor (1 lsl j)
  done;
  !out

(* A random input of random length; half the time truncated and then
   regrown, so that words once written and cleared are read again. *)
let random_vector rng =
  let x = mk_input rng (Util.Rng.int rng 700) in
  if Util.Rng.bool rng then begin
    Util.Bitvec.truncate x (Util.Rng.int rng (Util.Bitvec.length x + 1));
    for _ = 1 to Util.Rng.int rng 200 do
      Util.Bitvec.push x (Util.Rng.bool rng)
    done
  end;
  x

(* One stream of each kind: [Explicit] arrays are often shorter than the
   range a hash reads, so out-of-range words (read as zero) are covered. *)
let random_stream rng ~kind =
  match kind with
  | 0 -> Seed_stream.uniform ~key:(Util.Rng.int64 rng)
  | 1 -> Seed_stream.biased (Smallbias.Generator.sample rng)
  | _ -> Seed_stream.explicit (Array.init (Util.Rng.int rng 400) (fun _ -> Util.Rng.int64 rng))

let random_offset rng ~kind =
  if kind = 2 then Util.Rng.int rng 300 else Util.Rng.int rng (1 lsl 30)

let prop_kernel_matches_reference =
  QCheck.Test.make ~name:"kernel = per-word reference (all stream kinds)" ~count:600
    QCheck.(pair (int_bound 2) (int_bound 1_000_000))
    (fun (kind, seed) ->
      let rng = Util.Rng.create seed in
      let stream = random_stream rng ~kind in
      let x = random_vector rng in
      let len = Util.Bitvec.length x in
      let tau = 1 + Util.Rng.int rng Ip_hash.max_tau in
      let offset = random_offset rng ~kind in
      let v = Util.Rng.bits rng - (1 lsl 29) in
      let big = Int64.to_int (Util.Rng.int64 rng) in
      List.for_all
        (fun bits ->
          bits > len
          || Ip_hash.hash_prefix stream ~offset ~tau x ~bits
             = ref_hash_prefix stream ~offset ~tau x ~bits)
        [ 0; 1; 63; 64; 65; len; Util.Rng.int rng (len + 1) ]
      && Ip_hash.hash stream ~offset ~tau x = ref_hash_prefix stream ~offset ~tau x ~bits:len
      && List.for_all
           (fun v -> Ip_hash.hash_int stream ~offset ~tau v = ref_hash_int stream ~offset ~tau v)
           [ 0; 1; v; big; max_int; min_int; -1 ])

(* The uniform loop computes SplitMix64 inline; read every seed word
   back out of the kernel (the parity against a unit vector is one seed
   bit) and compare it with [Util.Rng.at]. *)
let test_kernel_splitmix_matches_rng () =
  let rng = Util.Rng.create 21 in
  for _ = 1 to 40 do
    let key = Util.Rng.int64 rng in
    let i = Int64.to_int (Int64.shift_right_logical (Util.Rng.int64 rng) 24) in
    let s = Seed_stream.uniform ~key in
    Alcotest.(check int64) "word = Rng.at" (Util.Rng.at ~seed:key i) (Seed_stream.word s i);
    let tau = Ip_hash.max_tau in
    let words = Array.make tau 0L in
    for b = 0 to 63 do
      let unit = [| Int64.shift_left 1L b |] in
      let h = Seed_stream.inner_products s ~offset:i ~tau unit ~bits:64 in
      for j = 0 to tau - 1 do
        if (h lsr j) land 1 = 1 then words.(j) <- Int64.logor words.(j) (Int64.shift_left 1L b)
      done
    done;
    Array.iteri
      (fun j w -> Alcotest.(check int64) "kernel word = Rng.at" (Util.Rng.at ~seed:key (i + j)) w)
      words
  done

let test_kernel_rejects_short_array () =
  let s = Seed_stream.uniform ~key:1L in
  Alcotest.check_raises "bits beyond the array"
    (Invalid_argument "Seed_stream.inner_products: bits") (fun () ->
      ignore (Seed_stream.inner_products s ~offset:0 ~tau:4 [| 1L |] ~bits:65))

(* The hot path allocates nothing: [Seeds.hash_prefix] on a 20-word
   input and [Seeds.hash_int], on a uniform stream.  Minor-heap words
   are counted exactly in native code. *)
let minor_words_per_call ~calls f =
  f 0;
  let before = Gc.minor_words () in
  for i = 1 to calls do
    f i
  done;
  (Gc.minor_words () -. before) /. float_of_int calls

let test_kernel_allocation_free () =
  let seeds =
    Coding.Seeds.make ~stream:(Seed_stream.uniform ~key:0x5EEDL) ~tau:6 ~wmax:24 ~slot:3 ~slots:16
  in
  let x = mk_input (Util.Rng.create 22) (20 * 64) in
  let sink = ref 0 in
  let prefix =
    minor_words_per_call ~calls:10_000 (fun i ->
        sink := !sink lxor Coding.Seeds.hash_prefix seeds ~iter:i ~field:(i land 1) x ~bits:(20 * 64))
  in
  let ints =
    minor_words_per_call ~calls:10_000 (fun i ->
        sink := !sink lxor Coding.Seeds.hash_int seeds ~iter:i ~field:(i mod 3) i)
  in
  ignore (Sys.opaque_identity !sink);
  Alcotest.(check bool) (Printf.sprintf "hash_prefix %.4f words/call" prefix) true (prefix <= 0.01);
  Alcotest.(check bool) (Printf.sprintf "hash_int %.4f words/call" ints) true (ints <= 0.01)

let () =
  Alcotest.run "hashing"
    [
      ( "seed_stream",
        [
          Alcotest.test_case "uniform pure" `Quick test_uniform_stream_pure;
          Alcotest.test_case "explicit" `Quick test_explicit_stream;
          Alcotest.test_case "biased matches generator" `Quick test_biased_stream_matches_generator;
        ] );
      ( "ip_hash",
        [
          Alcotest.test_case "deterministic" `Quick test_hash_deterministic;
          Alcotest.test_case "equal inputs equal hashes" `Quick test_hash_equal_inputs_equal_hashes;
          Alcotest.test_case "offset changes hash" `Quick test_hash_offset_changes_hash;
          Alcotest.test_case "range" `Quick test_hash_range;
          Alcotest.test_case "empty input" `Quick test_hash_empty_input;
          Alcotest.test_case "linearity" `Quick test_hash_linearity;
          Alcotest.test_case "collision rate uniform" `Slow test_collision_rate_uniform;
          Alcotest.test_case "collision rate biased" `Slow test_collision_rate_biased;
          Alcotest.test_case "collision rate drops with tau" `Slow test_collision_rate_drops_with_tau;
          Alcotest.test_case "hash_int" `Quick test_hash_int;
          Alcotest.test_case "words_cost" `Quick test_words_cost;
          QCheck_alcotest.to_alcotest prop_prefix_sensitivity;
        ] );
      ( "kernel",
        [
          QCheck_alcotest.to_alcotest prop_kernel_matches_reference;
          Alcotest.test_case "splitmix matches Rng.at" `Quick test_kernel_splitmix_matches_rng;
          Alcotest.test_case "rejects bits beyond the array" `Quick test_kernel_rejects_short_array;
          Alcotest.test_case "allocation-free on a uniform stream" `Quick test_kernel_allocation_free;
        ] );
    ]
