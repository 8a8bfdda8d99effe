(* Tests for the util library: RNG determinism and distribution sanity,
   bit-vector invariants, statistics helpers. *)

open Util

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.int64 a) (Rng.int64 b)
  done

let test_rng_seeds_differ () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.int64 a = Rng.int64 b then incr same
  done;
  Alcotest.(check int) "streams differ" 0 !same

let test_rng_split_independent () =
  let a = Rng.create 7 in
  let b = Rng.split a in
  let xa = Rng.int64 a and xb = Rng.int64 b in
  Alcotest.(check bool) "split streams differ" true (xa <> xb)

let test_rng_stateless_at () =
  Alcotest.(check int64) "at is pure" (Rng.at ~seed:99L 5) (Rng.at ~seed:99L 5);
  Alcotest.(check bool) "at varies with index" true (Rng.at ~seed:99L 5 <> Rng.at ~seed:99L 6);
  Alcotest.(check bool) "at varies with seed" true (Rng.at ~seed:99L 5 <> Rng.at ~seed:98L 5)

(* Below the width a grid cell keeps its historical index; past it, every
   cell gets an index of its own that no in-width cell uses. *)
let test_rng_coord () =
  let width = 64 in
  let seen = Hashtbl.create 4096 in
  for row = 0 to 40 do
    for col = 0 to (3 * width) - 1 do
      let i = Rng.coord ~width row col in
      if col < width then Alcotest.(check int) "in-width index" ((row * width) + col) i
      else Alcotest.(check bool) "out-of-width index below every in-width one" true (i < 0);
      Alcotest.(check bool) "injective" false (Hashtbl.mem seen i);
      Hashtbl.add seen i ()
    done
  done

let test_rng_int_range () =
  let r = Rng.create 3 in
  for _ = 1 to 1000 do
    let x = Rng.int r 17 in
    Alcotest.(check bool) "in range" true (x >= 0 && x < 17)
  done

let test_rng_float_range () =
  let r = Rng.create 4 in
  for _ = 1 to 1000 do
    let x = Rng.float r in
    Alcotest.(check bool) "in [0,1)" true (x >= 0. && x < 1.)
  done

let test_rng_bool_balanced () =
  let r = Rng.create 5 in
  let ones = ref 0 in
  let n = 10_000 in
  for _ = 1 to n do
    if Rng.bool r then incr ones
  done;
  let p = float_of_int !ones /. float_of_int n in
  Alcotest.(check bool) "roughly balanced" true (p > 0.45 && p < 0.55)

let test_rng_of_key () =
  Alcotest.(check bool) "distinct keys distinct streams" true
    (Rng.int64 (Rng.of_key "alpha") <> Rng.int64 (Rng.of_key "beta"))

(* --- Bitvec --- *)

let test_bitvec_push_get () =
  let v = Bitvec.create () in
  let bits = List.init 200 (fun i -> i mod 3 = 0) in
  List.iter (Bitvec.push v) bits;
  Alcotest.(check int) "length" 200 (Bitvec.length v);
  List.iteri (fun i b -> Alcotest.(check bool) (Printf.sprintf "bit %d" i) b (Bitvec.get v i)) bits

let test_bitvec_push_int () =
  let v = Bitvec.create () in
  Bitvec.push_int v ~bits:8 0b10110010;
  Alcotest.(check int) "length" 8 (Bitvec.length v);
  Alcotest.(check bool) "bit0 (lsb)" false (Bitvec.get v 0);
  Alcotest.(check bool) "bit1" true (Bitvec.get v 1);
  Alcotest.(check bool) "bit7 (msb)" true (Bitvec.get v 7)

let test_bitvec_truncate_cleans_words () =
  let v = Bitvec.create () in
  for _ = 1 to 130 do
    Bitvec.push v true
  done;
  Bitvec.truncate v 65;
  Alcotest.(check int) "length" 65 (Bitvec.length v);
  (* Word 1 must only expose bit 0; word 2 must be zero. *)
  Alcotest.(check int64) "word1 masked" 1L (Bitvec.word v 1);
  Alcotest.(check int64) "word2 zero" 0L (Bitvec.word v 2)

let test_bitvec_truncate_then_push () =
  let v = Bitvec.create () in
  for _ = 1 to 100 do
    Bitvec.push v true
  done;
  Bitvec.truncate v 50;
  Bitvec.push v false;
  Bitvec.push v true;
  Alcotest.(check int) "length" 52 (Bitvec.length v);
  Alcotest.(check bool) "old bit survives" true (Bitvec.get v 49);
  Alcotest.(check bool) "new bit 50" false (Bitvec.get v 50);
  Alcotest.(check bool) "new bit 51" true (Bitvec.get v 51)

let test_bitvec_equal () =
  let mk l = Bitvec.of_bools l in
  Alcotest.(check bool) "equal" true (Bitvec.equal (mk [ true; false ]) (mk [ true; false ]));
  Alcotest.(check bool) "length differs" false (Bitvec.equal (mk [ true ]) (mk [ true; false ]));
  Alcotest.(check bool) "content differs" false (Bitvec.equal (mk [ true ]) (mk [ false ]))

let test_bitvec_equal_after_truncate () =
  let a = Bitvec.of_bools [ true; true; true ] in
  let b = Bitvec.of_bools [ true; true; false ] in
  Bitvec.truncate a 2;
  Bitvec.truncate b 2;
  Alcotest.(check bool) "prefixes equal" true (Bitvec.equal a b)

(* [common_prefix] at word boundaries: [bits] of 0, 63, 64 and 65 over
   vectors that run 70 bits past it and differ only there, so the whole
   range is common; then differences inside the range, which it must
   locate (the last bit in range, the first bit, bit 10, and the first
   of two), and the domain check. *)
let test_bitvec_common_prefix () =
  let r = Rng.create 7 in
  let pattern = List.init 200 (fun _ -> Rng.bool r) in
  let mk ?(flips = []) ?(len = 200) () =
    Bitvec.of_bools
      (List.filteri (fun i _ -> i < len)
         (List.mapi (fun i b -> if List.mem i flips then not b else b) pattern))
  in
  List.iter
    (fun bits ->
      let a = mk () in
      let check what want b =
        Alcotest.(check int) (Printf.sprintf "bits %d: %s" bits what) want
          (Bitvec.common_prefix a b ~bits)
      in
      check "equal" bits (mk ());
      check "differs just past" bits (mk ~flips:[ bits ] ());
      check "differs 70 past" bits (mk ~flips:[ bits + 69 ] ());
      check "shorter peer" bits (mk ~len:bits ());
      if bits > 0 then begin
        check "last bit in range" (bits - 1) (mk ~flips:[ bits - 1 ] ());
        check "first bit" 0 (mk ~flips:[ 0 ] ())
      end;
      if bits > 10 then check "first of two" 10 (mk ~flips:[ 10; bits - 1 ] ()))
    [ 0; 63; 64; 65 ];
  Alcotest.check_raises "bits past the shorter vector"
    (Invalid_argument "Bitvec.common_prefix: bits") (fun () ->
      ignore (Bitvec.common_prefix (mk ()) (mk ~len:64 ()) ~bits:65))

let test_bitvec_word_beyond_data () =
  let v = Bitvec.of_bools [ true ] in
  Alcotest.(check int64) "out-of-range word is 0" 0L (Bitvec.word v 100)

let test_popcount () =
  Alcotest.(check int) "zero" 0 (Bitvec.popcount 0L);
  Alcotest.(check int) "all ones" 64 (Bitvec.popcount (-1L));
  Alcotest.(check int) "0xFF" 8 (Bitvec.popcount 0xFFL);
  Alcotest.(check int) "single high bit" 1 (Bitvec.popcount Int64.min_int)

let test_parity () =
  Alcotest.(check int) "even" 0 (Bitvec.parity64 0b11L);
  Alcotest.(check int) "odd" 1 (Bitvec.parity64 0b111L)

let prop_bitvec_roundtrip =
  QCheck.Test.make ~name:"bitvec push/get roundtrip" ~count:200
    QCheck.(list bool)
    (fun bits ->
      let v = Bitvec.of_bools bits in
      List.length bits = Bitvec.length v && List.mapi (fun i _ -> Bitvec.get v i) bits = bits)

let prop_bitvec_append =
  QCheck.Test.make ~name:"bitvec append = list append" ~count:200
    QCheck.(pair (list bool) (list bool))
    (fun (a, b) ->
      let va = Bitvec.of_bools a in
      Bitvec.append va (Bitvec.of_bools b);
      Bitvec.equal va (Bitvec.of_bools (a @ b)))

let prop_popcount_matches_naive =
  QCheck.Test.make ~name:"popcount matches bit loop" ~count:500 QCheck.int64 (fun x ->
      let naive = ref 0 in
      for i = 0 to 63 do
        if Int64.logand (Int64.shift_right_logical x i) 1L = 1L then incr naive
      done;
      Bitvec.popcount x = !naive)

(* [push_int]'s domain is [0 <= bits <= Sys.int_size]: [~bits:66] used
   to push a spurious 1 at bit 64 ([v lsr 64] wraps the shift count on
   amd64) and a negative count silently pushed nothing. *)
let test_bitvec_push_int_domain () =
  let v = Bitvec.create () in
  Alcotest.check_raises "bits > Sys.int_size" (Invalid_argument "Bitvec.push_int: bits")
    (fun () -> Bitvec.push_int v ~bits:66 1);
  Alcotest.check_raises "negative bits" (Invalid_argument "Bitvec.push_int: bits") (fun () ->
      Bitvec.push_int v ~bits:(-3) 1);
  Alcotest.(check int) "nothing pushed" 0 (Bitvec.length v);
  Bitvec.push_int v ~bits:0 (-1);
  Alcotest.(check int) "bits:0 pushes nothing" 0 (Bitvec.length v);
  Bitvec.push_int v ~bits:Sys.int_size (-1);
  Alcotest.(check int) "bits:int_size" Sys.int_size (Bitvec.length v);
  Alcotest.(check bool) "all ones" true
    (List.for_all (Bitvec.get v) (List.init Sys.int_size Fun.id))

(* The vector against a [bool array] model, over random sequences of
   every mutation, [set] included.  After each step: [length], [get],
   [word] and [equal] agree with the model, and every bit of [backing]
   at or beyond [length] is zero — the hash kernel reads whole words of
   it. *)
let model_word m w =
  let x = ref 0L in
  for b = 0 to 63 do
    let i = (64 * w) + b in
    if i < Array.length m && m.(i) then x := Int64.logor !x (Int64.shift_left 1L b)
  done;
  !x

let agrees v m =
  let n = Array.length m in
  let data = Bitvec.backing v in
  let tail_clean = ref true in
  for i = n to (8 * Bytes.length data) - 1 do
    if (Char.code (Bytes.get data (i / 8)) lsr (i mod 8)) land 1 = 1 then tail_clean := false
  done;
  Bitvec.length v = n
  && Bitvec.words v = (n + 63) / 64
  && Array.for_all Fun.id (Array.init n (fun i -> Bitvec.get v i = m.(i)))
  && List.for_all
       (fun w -> Bitvec.word v w = model_word m w)
       (List.init (Bitvec.words v + 2) Fun.id)
  && Bitvec.equal v (Bitvec.of_bools (Array.to_list m))
  && !tail_clean

let int_bits bits v = Array.init bits (fun i -> (v lsr i) land 1 = 1)
let int64_bits v = Array.init 64 (fun i -> Int64.logand (Int64.shift_right_logical v i) 1L = 1L)

let prop_bitvec_model =
  QCheck.Test.make ~name:"bitvec = bool array model" ~count:300 QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let v = ref (Bitvec.create ()) and m = ref [||] in
      (* Copies taken along the way, with their model: later mutations of
         the live vector must not reach them. *)
      let snapshots = ref [] in
      let ok = ref true in
      for _ = 1 to 80 do
        (match Rng.int rng 8 with
        | 0 ->
            let b = Rng.bool rng in
            Bitvec.push !v b;
            m := Array.append !m [| b |]
        | 1 | 2 ->
            let bits = Rng.int rng (Sys.int_size + 1) in
            let x = Int64.to_int (Rng.int64 rng) in
            Bitvec.push_int !v ~bits x;
            m := Array.append !m (int_bits bits x)
        | 3 ->
            let x = Rng.int64 rng in
            Bitvec.push_int64 !v x;
            m := Array.append !m (int64_bits x)
        | 4 ->
            let n = Rng.int rng (Array.length !m + 1) in
            Bitvec.truncate !v n;
            m := Array.sub !m 0 n
        | 7 ->
            if Array.length !m > 0 then begin
              let i = Rng.int rng (Array.length !m) and b = Rng.bool rng in
              Bitvec.set !v i b;
              m.contents.(i) <- b
            end
        | 5 ->
            snapshots := (Bitvec.copy !v, Array.copy !m) :: !snapshots;
            v := Bitvec.copy !v
        | _ ->
            if Rng.int rng 4 = 0 then begin
              Bitvec.append !v !v;
              m := Array.append !m !m
            end
            else begin
              let src = Array.init (Rng.int rng 200) (fun _ -> Rng.bool rng) in
              Bitvec.append !v (Bitvec.of_bools (Array.to_list src));
              m := Array.append !m src
            end);
        if not (agrees !v !m) then ok := false;
        (* Keep the model small: self-appends double it. *)
        if Array.length !m > 4000 then begin
          Bitvec.truncate !v 1000;
          m := Array.sub !m 0 1000
        end
      done;
      !ok && List.for_all (fun (c, cm) -> agrees c cm) !snapshots)

(* [push_int] at every bit offset within a word, with every width. *)
let test_bitvec_push_int_offsets () =
  let rng = Rng.create 8 in
  for o = 0 to 63 do
    for bits = 0 to Sys.int_size do
      let lead = Rng.int64 rng and x = Int64.to_int (Rng.int64 rng) in
      let v = Bitvec.create () in
      Bitvec.push_int64 v lead;
      Bitvec.truncate v o;
      Bitvec.push_int v ~bits x;
      let m = Array.append (Array.sub (int64_bits lead) 0 o) (int_bits bits x) in
      if not (agrees v m) then Alcotest.failf "push_int ~bits:%d at offset %d" bits o
    done
  done

(* Once the capacity is there, the mutations allocate nothing.  Minor
   words are counted exactly in native code. *)
let minor_words_per_call ~calls f =
  f 0;
  let before = Gc.minor_words () in
  for i = 1 to calls do
    f i
  done;
  (Gc.minor_words () -. before) /. float_of_int calls

let test_bitvec_allocation_free () =
  let calls = 10_000 in
  let v = Bitvec.create () in
  for _ = 0 to calls + 1 do
    Bitvec.push_int64 v (-1L)
  done;
  Bitvec.truncate v 0;
  let check name f =
    let words = minor_words_per_call ~calls f in
    Alcotest.(check bool) (Printf.sprintf "%s: %.4f words/call" name words) true (words <= 0.01)
  in
  check "push" (fun i -> Bitvec.push v (i land 1 = 1));
  Bitvec.truncate v 0;
  check "push_int" (fun i -> Bitvec.push_int v ~bits:(i mod 64) i);
  Bitvec.truncate v 0;
  (* Boxed up front: a call boxes an [int64] argument built on the spot. *)
  let words = Array.init 16 (fun i -> Rng.at ~seed:3L i) in
  check "push_int64" (fun i -> Bitvec.push_int64 v words.(i land 15));
  check "truncate" (fun _ -> Bitvec.truncate v (Bitvec.length v - 61));
  ignore (Sys.opaque_identity v);
  (* [common_prefix] over equal words, then up to a differing bit. *)
  let a = Bitvec.of_bools (List.init 300 (fun i -> i mod 3 = 0)) in
  let b = Bitvec.of_bools (List.init 300 (fun i -> i mod 3 = 0 && i <> 200)) in
  check "common_prefix" (fun i ->
      ignore (Sys.opaque_identity (Bitvec.common_prefix a b ~bits:(100 + (i land 127)))))

(* --- Stats --- *)

let test_stats_mean () = Alcotest.(check (float 1e-9)) "mean" 2. (Stats.mean [ 1.; 2.; 3. ])

let test_stats_stddev () =
  Alcotest.(check (float 1e-9)) "stddev" 1. (Stats.stddev [ 1.; 2.; 3. ])

let test_stats_median () =
  Alcotest.(check (float 1e-9)) "median odd" 2. (Stats.median [ 3.; 1.; 2. ]);
  Alcotest.(check (float 1e-9)) "singleton" 5. (Stats.median [ 5. ])

let test_stats_percentile () =
  let xs = List.init 100 (fun i -> float_of_int (i + 1)) in
  Alcotest.(check (float 1e-9)) "p95" 95. (Stats.percentile 0.95 xs);
  Alcotest.(check (float 1e-9)) "p100" 100. (Stats.percentile 1.0 xs)

let test_stats_percentile_arr () =
  let xs = Array.init 100 (fun i -> float_of_int (100 - i)) in
  Alcotest.(check (float 1e-9)) "p95" 95. (Stats.percentile_arr 0.95 xs);
  Alcotest.(check (float 1e-9)) "p50" 50. (Stats.percentile_arr 0.50 xs);
  Alcotest.(check (float 1e-9)) "p100" 100. (Stats.percentile_arr 1.0 xs);
  (* Agrees with the list version on the same data. *)
  let ys = [ 3.; 1.; 4.; 1.; 5.; 9.; 2.; 6. ] in
  List.iter
    (fun p ->
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "matches list at %.2f" p)
        (Stats.percentile p ys)
        (Stats.percentile_arr p (Array.of_list ys)))
    [ 0.; 0.25; 0.5; 0.9; 1.0 ];
  (* Does not mutate its argument. *)
  let zs = [| 2.; 1. |] in
  ignore (Stats.percentile_arr 0.5 zs);
  Alcotest.(check bool) "input untouched" true (zs.(0) = 2. && zs.(1) = 1.);
  Alcotest.(check bool) "empty is nan" true (Float.is_nan (Stats.percentile_arr 0.5 [||]))

let test_stats_wilson () =
  let lo, hi = Stats.wilson_interval ~successes:50 ~trials:100 in
  Alcotest.(check bool) "contains p" true (lo < 0.5 && 0.5 < hi);
  Alcotest.(check bool) "bounded" true (lo >= 0. && hi <= 1.);
  let lo0, hi0 = Stats.wilson_interval ~successes:0 ~trials:0 in
  Alcotest.(check bool) "empty trials" true (lo0 = 0. && hi0 = 1.)

let test_stats_edge_cases () =
  (* percentile_arr: a singleton is that element at every p, and the
     empty array is nan at every p, not an exception. *)
  List.iter
    (fun p ->
      Alcotest.(check (float 1e-9)) (Printf.sprintf "singleton at %.2f" p) 7.
        (Stats.percentile_arr p [| 7. |]);
      Alcotest.(check bool)
        (Printf.sprintf "empty is nan at %.2f" p)
        true
        (Float.is_nan (Stats.percentile_arr p [||])))
    [ 0.; 0.5; 1.0 ];
  (* wilson_interval at the degenerate proportions: the interval stays
     inside [0,1], pins the achieved edge, and keeps real width on the
     other side (0/20 is not "certainly never"). *)
  let lo, hi = Stats.wilson_interval ~successes:0 ~trials:20 in
  Alcotest.(check (float 1e-9)) "p=0 pins the lower edge" 0. lo;
  Alcotest.(check bool) (Printf.sprintf "p=0 upper edge real (%.3f)" hi) true
    (hi > 0.05 && hi < 0.35);
  let lo, hi = Stats.wilson_interval ~successes:20 ~trials:20 in
  Alcotest.(check (float 1e-9)) "p=1 pins the upper edge" 1. hi;
  Alcotest.(check bool) (Printf.sprintf "p=1 lower edge real (%.3f)" lo) true
    (lo > 0.65 && lo < 0.95);
  (* n=0 is vacuous: no evidence, full [0,1]. *)
  let lo, hi = Stats.wilson_interval ~successes:0 ~trials:0 in
  Alcotest.(check bool) "n=0 vacuous" true (lo = 0. && hi = 1.)

let test_stats_histogram () =
  let h = Stats.histogram ~bins:2 [ 0.; 0.1; 0.9; 1.0 ] in
  Alcotest.(check int) "bins" 2 (Array.length h);
  Alcotest.(check int) "total count" 4 (Array.fold_left (fun a (_, c) -> a + c) 0 h)

(* ---------- Mem ---------- *)

let write_tmp_status contents =
  let path = Filename.temp_file "mic_mem" ".status" in
  let oc = open_out path in
  output_string oc contents;
  close_out oc;
  path

let test_mem_parses_vmhwm () =
  let path = write_tmp_status "Name:\tmic\nVmPeak:\t  9999 kB\nVmHWM:\t  1234 kB\nThreads:\t1\n" in
  let kb = Util.Mem.peak_rss_kb ~status_path:path () in
  Sys.remove path;
  Alcotest.(check int) "VmHWM parsed" 1234 kb

let check_gc_fallback name status_path =
  (* top_heap_words is monotone, so the fallback value must land between
     two surrounding reads of it. *)
  let before = Util.Mem.heap_top_kb () in
  let kb = Util.Mem.peak_rss_kb ?status_path () in
  let after = Util.Mem.heap_top_kb () in
  Alcotest.(check bool) name true (kb >= before && kb <= after && kb > 0)

let test_mem_fallback_missing_file () =
  check_gc_fallback "missing status file -> GC high-water mark"
    (Some "/nonexistent/no/such/status")

let test_mem_fallback_no_vmhwm () =
  let path = write_tmp_status "Name:\tmic\nVmPeak:\t 9999 kB\n" in
  check_gc_fallback "VmHWM-less status -> GC high-water mark" (Some path);
  Sys.remove path

let test_mem_fallback_malformed () =
  let path = write_tmp_status "VmHWM: not-a-number kB\n" in
  check_gc_fallback "digit-free VmHWM -> GC high-water mark" (Some path);
  Sys.remove path

let test_mem_default_positive () =
  (* Whatever the platform provides, the probe must report something. *)
  Alcotest.(check bool) "peak_rss_kb > 0" true (Util.Mem.peak_rss_kb () > 0)

(* The one JSON writer round-trips through the one reader for every byte
   string: control bytes, quotes, backslashes and bytes >= 0x80 alike. *)
let prop_json_str_roundtrip =
  QCheck.Test.make ~name:"Json.parse (Json.str s) = Str s" ~count:500
    QCheck.(string_gen Gen.(map Char.chr (int_bound 255)))
    (fun s -> Util.Json.parse (Util.Json.str s) = Util.Json.Str s)

let () =
  Alcotest.run "util"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seeds differ" `Quick test_rng_seeds_differ;
          Alcotest.test_case "split independent" `Quick test_rng_split_independent;
          Alcotest.test_case "stateless at" `Quick test_rng_stateless_at;
          Alcotest.test_case "grid coordinates" `Quick test_rng_coord;
          Alcotest.test_case "int in range" `Quick test_rng_int_range;
          Alcotest.test_case "float in range" `Quick test_rng_float_range;
          Alcotest.test_case "bool balanced" `Quick test_rng_bool_balanced;
          Alcotest.test_case "of_key" `Quick test_rng_of_key;
        ] );
      ( "bitvec",
        [
          Alcotest.test_case "push/get" `Quick test_bitvec_push_get;
          Alcotest.test_case "push_int lsb-first" `Quick test_bitvec_push_int;
          Alcotest.test_case "truncate cleans words" `Quick test_bitvec_truncate_cleans_words;
          Alcotest.test_case "truncate then push" `Quick test_bitvec_truncate_then_push;
          Alcotest.test_case "equal" `Quick test_bitvec_equal;
          Alcotest.test_case "equal after truncate" `Quick test_bitvec_equal_after_truncate;
          Alcotest.test_case "common_prefix" `Quick test_bitvec_common_prefix;
          Alcotest.test_case "word beyond data" `Quick test_bitvec_word_beyond_data;
          Alcotest.test_case "push_int domain" `Quick test_bitvec_push_int_domain;
          Alcotest.test_case "push_int at every offset" `Quick test_bitvec_push_int_offsets;
          Alcotest.test_case "allocation-free" `Quick test_bitvec_allocation_free;
          Alcotest.test_case "popcount" `Quick test_popcount;
          Alcotest.test_case "parity" `Quick test_parity;
          QCheck_alcotest.to_alcotest prop_bitvec_roundtrip;
          QCheck_alcotest.to_alcotest prop_bitvec_append;
          QCheck_alcotest.to_alcotest prop_bitvec_model;
          QCheck_alcotest.to_alcotest prop_popcount_matches_naive;
        ] );
      ( "stats",
        [
          Alcotest.test_case "mean" `Quick test_stats_mean;
          Alcotest.test_case "stddev" `Quick test_stats_stddev;
          Alcotest.test_case "median" `Quick test_stats_median;
          Alcotest.test_case "percentile" `Quick test_stats_percentile;
          Alcotest.test_case "percentile_arr" `Quick test_stats_percentile_arr;
          Alcotest.test_case "wilson" `Quick test_stats_wilson;
          Alcotest.test_case "edge cases" `Quick test_stats_edge_cases;
          Alcotest.test_case "histogram" `Quick test_stats_histogram;
        ] );
      ( "mem",
        [
          Alcotest.test_case "parses VmHWM" `Quick test_mem_parses_vmhwm;
          Alcotest.test_case "fallback: missing file" `Quick test_mem_fallback_missing_file;
          Alcotest.test_case "fallback: no VmHWM line" `Quick test_mem_fallback_no_vmhwm;
          Alcotest.test_case "fallback: malformed VmHWM" `Quick test_mem_fallback_malformed;
          Alcotest.test_case "default probe positive" `Quick test_mem_default_positive;
        ] );
      ("json", [ QCheck_alcotest.to_alcotest prop_json_str_roundtrip ]);
    ]
