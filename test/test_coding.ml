(* Tests for the coding library: transcripts, seed layout, the
   meeting-points mechanism (its convergence contract), flag passing,
   replay, the randomness exchange, baselines, and the full scheme. *)

let rng = Util.Rng.create 0xC0D1

(* ---------- Transcript ---------- *)

let chunk_events seed len =
  Array.init len (fun i ->
      match (seed + i) mod 3 with 0 -> Coding.Transcript.sym_star | 1 -> 2 | _ -> 3)

(* Push a whole record; read one back symbol by symbol. *)
let push t events = Coding.Transcript.push_chunk t ~events ~len:(Array.length events)

let record t c =
  Array.init (Coding.Transcript.event_count t c) (fun event ->
      Coding.Transcript.symbol t ~chunk:c ~event)

let test_transcript_push_and_read () =
  let t = Coding.Transcript.create () in
  Alcotest.(check int) "empty" 0 (Coding.Transcript.length t);
  push t (chunk_events 0 5);
  push t (chunk_events 1 3);
  Alcotest.(check int) "two chunks" 2 (Coding.Transcript.length t);
  Alcotest.(check bool) "events roundtrip" true (record t 1 = chunk_events 0 5);
  Alcotest.(check bool) "events roundtrip 2" true (record t 2 = chunk_events 1 3)

let test_transcript_serialization_layout () =
  let t = Coding.Transcript.create () in
  push t (chunk_events 0 4);
  (* 32 header bits + 2 bits per event. *)
  Alcotest.(check int) "prefix bits 1" (32 + 8) (Coding.Transcript.prefix_bits t 1);
  push t (chunk_events 1 6);
  Alcotest.(check int) "prefix bits 2" (32 + 8 + 32 + 12) (Coding.Transcript.prefix_bits t 2);
  Alcotest.(check int) "serialized = prefix at len"
    (Coding.Transcript.prefix_bits t 2)
    (Coding.Transcript.serialized_bits t);
  Alcotest.(check int) "prefix 0" 0 (Coding.Transcript.prefix_bits t 0)

let test_transcript_truncate_stamp () =
  let t = Coding.Transcript.create () in
  for i = 0 to 4 do
    push t (chunk_events i 4)
  done;
  let stamps () = List.init 6 (Coding.Transcript.stamp t) in
  let s0 = stamps () in
  Alcotest.(check int) "stamp 0" 0 (List.hd s0);
  Alcotest.(check int) "stamps distinct" 5 (List.length (List.sort_uniq compare (List.tl s0)));
  Coding.Transcript.truncate t 5;
  Alcotest.(check (list int)) "no-op truncate keeps stamps" s0 (stamps ());
  Coding.Transcript.truncate t 3;
  Alcotest.(check int) "length" 3 (Coding.Transcript.length t);
  Alcotest.(check (list int)) "kept prefix keeps its stamps" (List.filteri (fun i _ -> i <= 3) s0)
    (List.init 4 (Coding.Transcript.stamp t));
  (* Re-push after truncation: chunk numbering and serialization stay
     consistent, and the re-pushed chunk gets a fresh stamp even though
     its record is the same. *)
  push t (chunk_events 3 4);
  Alcotest.(check bool) "truncate + re-push restamps" true
    (Coding.Transcript.stamp t 4 <> List.nth s0 4);
  Coding.Transcript.truncate t 3;
  push t (chunk_events 9 4);
  Alcotest.(check bool) "chunk 4 replaced" true (record t 4 = chunk_events 9 4);
  let s1 = List.init 5 (Coding.Transcript.stamp t) in
  Coding.Transcript.corrupt t ~chunk:2 ~event:0;
  let s2 = List.init 5 (Coding.Transcript.stamp t) in
  Alcotest.(check (list int)) "corrupt keeps the prefix below" (List.filteri (fun i _ -> i <= 1) s1)
    (List.filteri (fun i _ -> i <= 1) s2);
  List.iteri
    (fun i (a, b) -> if i >= 2 then Alcotest.(check bool) "corrupt restamps from its chunk" true (a <> b))
    (List.combine s1 s2)

let test_transcript_serialization_distinguishes_position () =
  (* Two transcripts with identical chunk contents at different chunk
     numbers serialize differently (footnote 11: chunk numbers break the
     h(x) = h(x ∘ 0) degeneracy). *)
  let a = Coding.Transcript.create () and b = Coding.Transcript.create () in
  push a (chunk_events 0 4);
  push b (chunk_events 1 4);
  push b (chunk_events 0 4);
  (* chunk 1 of a = chunk 2 of b, but serializations of those chunks
     differ because of the embedded chunk number. *)
  Alcotest.(check bool) "serializations differ" false
    (Util.Bitvec.equal (Coding.Transcript.serialized a) (Coding.Transcript.serialized b))

let test_transcript_equal_prefix () =
  let a = Coding.Transcript.create () and b = Coding.Transcript.create () in
  for i = 0 to 3 do
    push a (chunk_events i 4);
    push b (chunk_events i 4)
  done;
  Alcotest.(check int) "full agreement" 4 (Coding.Transcript.equal_prefix a b);
  push a (chunk_events 7 4);
  push b (chunk_events 8 4);
  Alcotest.(check int) "diverged at 5" 4 (Coding.Transcript.equal_prefix a b);
  Coding.Transcript.truncate a 2;
  Alcotest.(check int) "clamped by length" 2 (Coding.Transcript.equal_prefix a b)

(* ---------- Seeds ---------- *)

let test_seeds_endpoints_agree () =
  (* Two endpoints deriving from the same stream and slot produce equal
     hashes of equal data, across iterations and fields. *)
  let mk () =
    Coding.Seeds.make ~stream:(Hashing.Seed_stream.uniform ~key:99L) ~tau:8 ~wmax:16 ~slot:3
      ~slots:5
  in
  let a = mk () and b = mk () in
  for iter = 0 to 4 do
    for field = 0 to Coding.Seeds.int_fields - 1 do
      Alcotest.(check int) "int hash agree"
        (Coding.Seeds.hash_int a ~iter ~field 12345)
        (Coding.Seeds.hash_int b ~iter ~field 12345)
    done
  done

let test_seeds_fields_independent () =
  let s =
    Coding.Seeds.make ~stream:(Hashing.Seed_stream.uniform ~key:7L) ~tau:12 ~wmax:8 ~slot:0
      ~slots:1
  in
  Alcotest.(check bool) "fields differ" true
    (Coding.Seeds.hash_int s ~iter:0 ~field:0 42 <> Coding.Seeds.hash_int s ~iter:0 ~field:1 42);
  Alcotest.(check bool) "iterations differ" true
    (Coding.Seeds.hash_int s ~iter:0 ~field:0 42 <> Coding.Seeds.hash_int s ~iter:1 ~field:0 42)

let test_seeds_slots_independent () =
  let mk slot =
    Coding.Seeds.make ~stream:(Hashing.Seed_stream.uniform ~key:7L) ~tau:12 ~wmax:8 ~slot
      ~slots:4
  in
  Alcotest.(check bool) "slots differ" true
    (Coding.Seeds.hash_int (mk 0) ~iter:0 ~field:0 42
    <> Coding.Seeds.hash_int (mk 1) ~iter:0 ~field:0 42)

(* ---------- Meeting points ---------- *)

(* Pack [msg] into a block of width τ, carry every wire bit over to a
   receive block, and unpack it; [lost t] drops bit [t] (a deletion). *)
let mp_block ~tau = Netsim.Network.Block.create (Topology.Graph.line 2) ~width:tau ~fields:5

let mp_transmit ?(lost = fun _ -> false) ~tau msg =
  let out = mp_block ~tau and inw = mp_block ~tau in
  Coding.Meeting_points.pack msg out ~dir:0;
  for t = 0 to Coding.Meeting_points.message_bits ~tau - 1 do
    match Netsim.Network.Block.get out ~dir:0 ~round:t with
    | Some b when not (lost t) -> Netsim.Network.Block.send inw ~dir:0 ~round:t b
    | _ -> ()
  done;
  Coding.Meeting_points.unpack inw ~dir:0

let test_mp_message_roundtrip () =
  let tau = 9 in
  let msg = Coding.Meeting_points.{ hk = 0x1F5; hp1 = 3; hp2 = 0x1FF; ht1 = 0; ht2 = 0x0AA } in
  let out = mp_block ~tau in
  Coding.Meeting_points.pack msg out ~dir:0;
  let wire t = Netsim.Network.Block.get out ~dir:0 ~round:t = Some true in
  Alcotest.(check int) "wire size" (5 * tau) (Coding.Meeting_points.message_bits ~tau);
  Alcotest.(check bool) "roundtrip" true (mp_transmit ~tau msg = msg);
  Alcotest.(check bool) "first bit is hk's lsb" true (wire 0);
  Alcotest.(check bool) "field order" true
    (wire tau && (not (wire (tau + 2))) && wire ((4 * tau) + 1));
  Alcotest.(check bool) "every bit of the message speaks" true
    (List.for_all
       (fun t -> Netsim.Network.Block.get out ~dir:0 ~round:t <> None)
       (List.init (5 * tau) Fun.id));
  Alcotest.check_raises "bit beyond the message rejected"
    (Invalid_argument "Network.Block: round out of range") (fun () ->
      ignore (Netsim.Network.Block.get out ~dir:0 ~round:(5 * tau)));
  Alcotest.check_raises "short block rejected"
    (Invalid_argument "Meeting_points.unpack: block is not 5 fields") (fun () ->
      ignore
        (Coding.Meeting_points.unpack
           (Netsim.Network.Block.create (Topology.Graph.line 2) ~width:tau ~fields:4)
           ~dir:0))

let test_mp_message_deletion_reads_zero () =
  let tau = 4 in
  let msg = Coding.Meeting_points.{ hk = 0xF; hp1 = 0xF; hp2 = 0xF; ht1 = 0xF; ht2 = 0xF } in
  Alcotest.(check bool) "all zero" true
    (mp_transmit ~lost:(fun _ -> true) ~tau msg
    = Coding.Meeting_points.{ hk = 0; hp1 = 0; hp2 = 0; ht1 = 0; ht2 = 0 });
  Alcotest.(check bool) "one deleted bit reads zero" true
    (mp_transmit ~lost:(fun t -> t = (2 * tau) + 1) ~tau msg
    = Coding.Meeting_points.{ msg with hp2 = 0xD })

(* The unmemoised per-end hash oracle: every call hashes afresh, under
   (iteration, field) of [seeds], and XORs the end's seed-rot mask in. *)
let plain_hasher ~rot seeds tr ~iter =
  Coding.Meeting_points.
    {
      h_int = (fun ~field v -> Coding.Seeds.hash_int seeds ~iter ~field v lxor rot);
      h_prefix =
        (fun ~field p ->
          Coding.Seeds.hash_prefix seeds ~iter ~field (Coding.Transcript.serialized tr)
            ~bits:(Coding.Transcript.prefix_bits tr p)
          lxor rot);
    }

(* Noiseless two-endpoint harness: run the interleaved meeting-points
   steps directly (perfect message delivery) until both sides report
   Simulate, or a step budget runs out. *)
let mp_harness ?(tau = 16) ta tb =
  let mk_seeds () =
    Coding.Seeds.make ~stream:(Hashing.Seed_stream.uniform ~key:0xABCDL) ~tau ~wmax:64 ~slot:0
      ~slots:1
  in
  let sa = mk_seeds () and sb = mk_seeds () in
  let ma = Coding.Meeting_points.create () and mb = Coding.Meeting_points.create () in
  let hasher = plain_hasher ~rot:0 in
  let steps = ref 0 in
  let budget = 200 in
  let rec go iter =
    if iter >= budget then ()
    else begin
      incr steps;
      let ha = hasher sa ta ~iter and hb = hasher sb tb ~iter in
      let la = Coding.Transcript.length ta and lb = Coding.Transcript.length tb in
      let msg_a = Coding.Meeting_points.prepare ma ha ~len:la in
      let msg_b = Coding.Meeting_points.prepare mb hb ~len:lb in
      (match Coding.Meeting_points.process ma ha ~len:la msg_b with
      | `Keep -> ()
      | `Truncate_to x -> Coding.Transcript.truncate ta x);
      (match Coding.Meeting_points.process mb hb ~len:lb msg_a with
      | `Keep -> ()
      | `Truncate_to x -> Coding.Transcript.truncate tb x);
      if
        Coding.Meeting_points.status ma = Coding.Meeting_points.Simulate
        && Coding.Meeting_points.status mb = Coding.Meeting_points.Simulate
      then ()
      else go (iter + 1)
    end
  in
  go 0;
  !steps

let build_pair ~g ~extra_a ~extra_b =
  (* Two transcripts agreeing on [g] chunks, then diverging. *)
  let ta = Coding.Transcript.create () and tb = Coding.Transcript.create () in
  for i = 0 to g - 1 do
    let ev = chunk_events i 4 in
    push ta ev;
    push tb ev
  done;
  for i = 0 to extra_a - 1 do
    push ta (chunk_events (1000 + i) 4)
  done;
  for i = 0 to extra_b - 1 do
    push tb (chunk_events (2000 + i) 4)
  done;
  (ta, tb)

let check_converged ?(max_steps = 200) name ta tb ~g ~b =
  let steps = mp_harness ta tb in
  let la = Coding.Transcript.length ta and lb = Coding.Transcript.length tb in
  Alcotest.(check bool) (name ^ ": lengths equal") true (la = lb);
  Alcotest.(check int) (name ^ ": transcripts equal") la (Coding.Transcript.equal_prefix ta tb);
  Alcotest.(check bool) (name ^ ": did not truncate past g by more than O(B)") true
    (la >= max 0 (g - (8 * (b + 1))));
  Alcotest.(check bool) (name ^ ": never grows past g") true (la <= g);
  Alcotest.(check bool)
    (Printf.sprintf "%s: steps %d within budget" name steps)
    true (steps <= max_steps)

let test_mp_in_sync_stays () =
  let ta, tb = build_pair ~g:10 ~extra_a:0 ~extra_b:0 in
  let steps = mp_harness ta tb in
  Alcotest.(check int) "one step to confirm sync" 1 steps;
  Alcotest.(check int) "nothing truncated" 10 (Coding.Transcript.length ta)

let test_mp_single_divergence () =
  let ta, tb = build_pair ~g:10 ~extra_a:1 ~extra_b:1 in
  check_converged "1-chunk divergence" ta tb ~g:10 ~b:1

let test_mp_length_mismatch () =
  let ta, tb = build_pair ~g:10 ~extra_a:3 ~extra_b:0 in
  check_converged "3-chunk overhang" ta tb ~g:10 ~b:3

let test_mp_large_divergence () =
  let ta, tb = build_pair ~g:20 ~extra_a:13 ~extra_b:6 in
  check_converged "13/6 divergence" ta tb ~g:20 ~b:13

let test_mp_empty_transcripts () =
  let ta, tb = build_pair ~g:0 ~extra_a:0 ~extra_b:0 in
  let steps = mp_harness ta tb in
  Alcotest.(check int) "empty in sync" 1 steps

let test_mp_total_divergence () =
  let ta, tb = build_pair ~g:0 ~extra_a:7 ~extra_b:5 in
  check_converged "no common prefix" ta tb ~g:0 ~b:7

let prop_mp_convergence =
  QCheck.Test.make ~name:"meeting points converge on random divergences" ~count:60
    QCheck.(triple (int_bound 30) (int_bound 10) (int_bound 10))
    (fun (g, ea, eb) ->
      let ta, tb = build_pair ~g ~extra_a:ea ~extra_b:eb in
      let _ = mp_harness ta tb in
      let la = Coding.Transcript.length ta and lb = Coding.Transcript.length tb in
      la = lb
      && Coding.Transcript.equal_prefix ta tb = la
      && la <= g
      && la >= max 0 (g - (8 * (max ea eb + 1))))

let prop_mp_converges_under_random_message_noise =
  (* Inject random corruption into the exchanged messages with
     probability 1/4 per direction per step: the mechanism must still
     converge (errors delay, never deadlock), within a generous budget. *)
  QCheck.Test.make ~name:"meeting points converge under random message noise" ~count:25
    QCheck.(triple (int_bound 15) (int_bound 6) (int_bound 1000))
    (fun (g, extra, noise_seed) ->
      let ta, tb = build_pair ~g ~extra_a:(1 + (extra / 2)) ~extra_b:extra in
      let tau = 16 in
      let noise = Util.Rng.create noise_seed in
      let mk_seeds () =
        Coding.Seeds.make ~stream:(Hashing.Seed_stream.uniform ~key:0xF00DL) ~tau ~wmax:64
          ~slot:0 ~slots:1
      in
      let sa = mk_seeds () and sb = mk_seeds () in
      let ma = Coding.Meeting_points.create () and mb = Coding.Meeting_points.create () in
      let hasher = plain_hasher ~rot:0 in
      let garble msg =
        if Util.Rng.int noise 4 = 0 then
          Coding.Meeting_points.
            { msg with ht1 = msg.ht1 lxor (1 + Util.Rng.int noise 0xFFFF) }
        else msg
      in
      let converged = ref false in
      for iter = 0 to 399 do
        if not !converged then begin
          let ha = hasher sa ta ~iter and hb = hasher sb tb ~iter in
          let la = Coding.Transcript.length ta and lb = Coding.Transcript.length tb in
          let msg_a = garble (Coding.Meeting_points.prepare ma ha ~len:la) in
          let msg_b = garble (Coding.Meeting_points.prepare mb hb ~len:lb) in
          (match Coding.Meeting_points.process ma ha ~len:la msg_b with
          | `Keep -> ()
          | `Truncate_to x -> Coding.Transcript.truncate ta x);
          (match Coding.Meeting_points.process mb hb ~len:lb msg_a with
          | `Keep -> ()
          | `Truncate_to x -> Coding.Transcript.truncate tb x);
          if
            Coding.Meeting_points.status ma = Coding.Meeting_points.Simulate
            && Coding.Meeting_points.status mb = Coding.Meeting_points.Simulate
            && Coding.Transcript.length ta = Coding.Transcript.length tb
            && Coding.Transcript.equal_prefix ta tb = Coding.Transcript.length ta
          then converged := true
        end
      done;
      !converged)

(* The link hash memo against [plain_hasher].  Two ends whose
   transcripts share a random prefix and then diverge (equal suffixes
   included) run the same meeting-points steps twice, once over the
   per-end oracle and once over [Mp_memo], with the same message noise
   and transcript growth so that k and the lengths wander.  The stream
   is uniform or δ-biased; the ends hold the same one (one shared memo,
   or one memo per end as for a cross-shard link) or different ones (a
   failed exchange: one memo per end); seed rot hits 0, 1 or 2 ends.
   Every message and every verdict must agree. *)
let prop_mp_memo_matches_plain_hasher =
  QCheck.Test.make ~name:"link hash memo ≡ per-end hasher" ~count:200
    (QCheck.int_bound 1_000_000)
    (fun seed ->
      let r = Util.Rng.create seed in
      let module MP = Coding.Meeting_points in
      let module T = Coding.Transcript in
      let tau = 1 + Util.Rng.int r 24 in
      let biased = Util.Rng.bool r and matched = Util.Rng.int r 4 > 0 in
      let key_a = Util.Rng.int64 r in
      let key_b = if matched then key_a else Int64.succ key_a in
      (* A fresh stream per user: a δ-biased generator carries a cursor. *)
      let seeds key =
        let stream =
          if biased then Hashing.Seed_stream.biased (Smallbias.Generator.of_seed (key, 0x5EEDL))
          else Hashing.Seed_stream.uniform ~key
        in
        Coding.Seeds.make ~stream ~tau ~wmax:64 ~slot:0 ~slots:1
      in
      let rot () = if Util.Rng.bool r then 1 + Util.Rng.int r ((1 lsl tau) - 1) else 0 in
      let rot_a = rot () and rot_b = rot () in
      let chunk () =
        Array.init (1 + Util.Rng.int r 6) (fun _ -> [| 0; 2; 3 |].(Util.Rng.int r 3))
      in
      let common = List.init (Util.Rng.int r 10) (fun _ -> chunk ()) in
      let suffix_a = List.init (Util.Rng.int r 6) (fun _ -> chunk ()) in
      let suffix_b =
        if Util.Rng.int r 3 = 0 then suffix_a else List.init (Util.Rng.int r 6) (fun _ -> chunk ())
      in
      let build suffix =
        let t = T.create () in
        List.iter (push t) (common @ suffix);
        t
      in
      (* [p] the oracle's side, [m] the memo's. *)
      let pa = build suffix_a and pb = build suffix_b in
      let ma = build suffix_a and mb = build suffix_b in
      let spa = seeds key_a and spb = seeds key_b in
      let memo_a, memo_b =
        if matched && Util.Rng.int r 3 > 0 then
          let m = Coding.Mp_memo.shared (seeds key_a) ~lo:ma ~hi:mb in
          (m, m)
        else (Coding.Mp_memo.single (seeds key_a) ma, Coding.Mp_memo.single (seeds key_b) mb)
      in
      let ha = Coding.Mp_memo.hasher memo_a ~lower:true
      and hb = Coding.Mp_memo.hasher memo_b ~lower:false in
      let st_pa = MP.create () and st_pb = MP.create () in
      let st_ma = MP.create () and st_mb = MP.create () in
      let ok = ref true in
      let agree x y = if x <> y then ok := false in
      let garble msg =
        if Util.Rng.int r 4 = 0 then MP.{ msg with ht1 = msg.ht1 lxor (1 + Util.Rng.int r 7) }
        else if Util.Rng.int r 6 = 0 then MP.{ msg with hk = 0 }
        else msg
      in
      let apply tr = function `Keep -> () | `Truncate_to x -> T.truncate tr x in
      for iter = 0 to Util.Rng.int r 24 do
        let a_first = Util.Rng.bool r in
        let lpa = T.length pa and lpb = T.length pb in
        let oa = plain_hasher ~rot:rot_a spa pa ~iter
        and ob = plain_hasher ~rot:rot_b spb pb ~iter in
        (* The memo side runs each end's start and prepare together, as
           the scheme does, in a random end order. *)
        let step_a () =
          Coding.Mp_memo.start memo_a ~lower:true ~iter ~rot:rot_a;
          MP.prepare st_ma ha ~len:(T.length ma)
        and step_b () =
          Coding.Mp_memo.start memo_b ~lower:false ~iter ~rot:rot_b;
          MP.prepare st_mb hb ~len:(T.length mb)
        in
        let msg_ma, msg_mb =
          if a_first then
            let x = step_a () in
            (x, step_b ())
          else
            let y = step_b () in
            (step_a (), y)
        in
        let msg_pa = MP.prepare st_pa oa ~len:lpa and msg_pb = MP.prepare st_pb ob ~len:lpb in
        agree msg_pa msg_ma;
        agree msg_pb msg_mb;
        let to_b = garble msg_pa and to_a = garble msg_pb in
        let va = MP.process st_pa oa ~len:lpa to_a and vb = MP.process st_pb ob ~len:lpb to_b in
        let wa, wb =
          if a_first then
            let x = MP.process st_ma ha ~len:(T.length ma) to_a in
            (x, MP.process st_mb hb ~len:(T.length mb) to_b)
          else
            let y = MP.process st_mb hb ~len:(T.length mb) to_b in
            (MP.process st_ma ha ~len:(T.length ma) to_a, y)
        in
        agree va wa;
        agree vb wb;
        apply pa va;
        apply pb vb;
        apply ma wa;
        apply mb wb;
        (* Growth: a chunk on one end, or the same chunk on both. *)
        (match Util.Rng.int r 4 with
        | 0 ->
            let c = chunk () in
            push pa c;
            push ma c
        | 1 ->
            let c = chunk () in
            List.iter (fun t -> push t c) [ pa; pb; ma; mb ]
        | _ -> ())
      done;
      !ok)

let prop_transcript_serialization_is_prefix_closed =
  (* The serialization of the first i chunks is literally a bit-prefix of
     the serialization of the first j >= i chunks — what makes prefix
     hashing by bit-length sound. *)
  QCheck.Test.make ~name:"transcript serialization is prefix-closed" ~count:100
    QCheck.(small_list (int_bound 6))
    (fun sizes ->
      let t = Coding.Transcript.create () in
      List.iteri (fun i sz -> push t (chunk_events i (sz + 1))) sizes;
      let full = Coding.Transcript.serialized t in
      let ok = ref true in
      for i = 0 to Coding.Transcript.length t do
        let bits = Coding.Transcript.prefix_bits t i in
        let partial = Coding.Transcript.create () in
        for j = 1 to i do
          push partial (record t j)
        done;
        let p = Coding.Transcript.serialized partial in
        for b = 0 to bits - 1 do
          if Util.Bitvec.get p b <> Util.Bitvec.get full b then ok := false
        done
      done;
      !ok)

(* Two transcripts against a record-list model, over random sequences
   of push, truncate, re-push and [corrupt].  Pushes draw records of
   0..12 symbols, often the other end's record at that index, sometimes
   with one symbol more or less, so both ends share prefixes and differ
   by record length at one index.  After every step: the readers return
   the model's records; [equal_prefix] is the model's longest common
   run of equal records; [same_prefix] at every [p] agrees with the
   model's serializations; and the stamps follow their rules — 0 at 0,
   kept below a change, fresh (never seen on that end) from it on, and
   one end's step leaves the other's untouched. *)
let prop_transcript_model =
  let module T = Coding.Transcript in
  let serialize recs p =
    let v = Util.Bitvec.create () in
    List.iteri
      (fun i r ->
        if i < p then begin
          Util.Bitvec.push_int v ~bits:32 (i + 1);
          Array.iter (fun s -> Util.Bitvec.push_int v ~bits:2 s) r
        end)
      recs;
    v
  in
  QCheck.Test.make ~name:"transcript = record-list model" ~count:300
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let r = Util.Rng.create seed in
      let sym () = [| T.sym_star; T.sym_bit false; T.sym_bit true |].(Util.Rng.int r 3) in
      let ends = [| T.create (); T.create () |] and model = [| [||]; [||] |] in
      let seen = [| Hashtbl.create 64; Hashtbl.create 64 |] in
      let stamps e = Array.init (T.length ends.(e) + 1) (T.stamp ends.(e)) in
      let ok = ref true in
      let check b = if not b then ok := false in
      let lcp () =
        let a = model.(0) and b = model.(1) in
        let rec go i =
          if i < Array.length a && i < Array.length b && a.(i) = b.(i) then go (i + 1) else i
        in
        go 0
      in
      for _ = 1 to 60 do
        let e = Util.Rng.int r 2 in
        let t = ends.(e) and before = stamps e and other = stamps (1 - e) in
        let n = Array.length model.(e) in
        (* [kept]: the stamps 0..kept-1 of [e] must not change. *)
        let kept =
          match Util.Rng.int r 5 with
          | 0 | 1 ->
              let peer = model.(1 - e) in
              let rc =
                if n < Array.length peer && Util.Rng.int r 3 > 0 then begin
                  let base = peer.(n) in
                  match Util.Rng.int r 4 with
                  | 0 -> Array.append base [| sym () |]
                  | 1 when Array.length base > 0 -> Array.sub base 0 (Array.length base - 1)
                  | _ -> Array.copy base
                end
                else Array.init (Util.Rng.int r 13) (fun _ -> sym ())
              in
              (* Pushed from a longer scratch array, as the scheme does. *)
              let scratch = Array.append rc (Array.init 5 (fun _ -> sym ())) in
              T.push_chunk t ~events:scratch ~len:(Array.length rc);
              model.(e) <- Array.append model.(e) [| rc |];
              n + 1
          | 2 | 3 ->
              let k = Util.Rng.int r (n + 1) in
              T.truncate t k;
              model.(e) <- Array.sub model.(e) 0 k;
              k + 1
          | _ ->
              let c = 1 + Util.Rng.int r (max 1 n) in
              if n > 0 && Array.length model.(e).(c - 1) > 0 then begin
                let event = Util.Rng.int r (Array.length model.(e).(c - 1)) in
                T.corrupt t ~chunk:c ~event;
                let row = Array.copy model.(e).(c - 1) in
                row.(event) <- T.sym_bit (row.(event) = T.sym_bit false);
                model.(e).(c - 1) <- row;
                c
              end
              else n + 1
        in
        let after = stamps e in
        Array.iteri
          (fun i s ->
            if i < kept then check (i < Array.length before && s = before.(i))
            else check ((not (Hashtbl.mem seen.(e) s)) && not (Array.mem s (Array.sub after 0 i))))
          after;
        Array.iter (fun s -> Hashtbl.replace seen.(e) s ()) after;
        check (after.(0) = 0);
        check (stamps (1 - e) = other);
        Array.iteri
          (fun j m ->
            check (T.length ends.(j) = Array.length m);
            Array.iteri
              (fun i rc ->
                check (T.event_count ends.(j) (i + 1) = Array.length rc);
                Array.iteri (fun ev s -> check (T.symbol ends.(j) ~chunk:(i + 1) ~event:ev = s)) rc)
              m;
            check
              (Util.Bitvec.equal
                 (serialize (Array.to_list m) (Array.length m))
                 (let v = Util.Bitvec.copy (T.serialized ends.(j)) in
                  Util.Bitvec.truncate v (T.serialized_bits ends.(j));
                  v)))
          model;
        check (T.equal_prefix ends.(0) ends.(1) = lcp ());
        for p = 0 to min (Array.length model.(0)) (Array.length model.(1)) do
          check
            (T.same_prefix ends.(0) ends.(1) p
            = Util.Bitvec.equal
                (serialize (Array.to_list model.(0)) p)
                (serialize (Array.to_list model.(1)) p))
        done
      done;
      !ok)

let prop_scheme_deterministic =
  (* Identical seeds, identical adversary: identical results — the
     reproducibility every experiment rests on. *)
  QCheck.Test.make ~name:"scheme runs are deterministic" ~count:8
    QCheck.(int_bound 500)
    (fun seed ->
      let g = Topology.Graph.cycle 5 in
      let pi = Protocol.Protocols.random_chatter g ~rounds:80 ~density:0.4 ~seed in
      let go () =
        let r =
          Coding.Scheme.run ~rng:(Util.Rng.create seed) (Coding.Params.algorithm_a g) pi
            (Netsim.Adversary.iid (Util.Rng.create (seed + 1)) ~rate:0.001)
        in
        (r.Coding.Scheme.success, r.Coding.Scheme.cc, r.Coding.Scheme.corruptions,
         r.Coding.Scheme.outputs)
      in
      go () = go ())

let test_mp_survives_corrupted_messages () =
  (* Corrupt the first few exchanged messages; the mechanism must still
     converge afterwards (errors only delay, never deadlock). *)
  let ta, tb = build_pair ~g:12 ~extra_a:2 ~extra_b:4 in
  let tau = 16 in
  let mk_seeds () =
    Coding.Seeds.make ~stream:(Hashing.Seed_stream.uniform ~key:0xEEL) ~tau ~wmax:64 ~slot:0
      ~slots:1
  in
  let sa = mk_seeds () and sb = mk_seeds () in
  let ma = Coding.Meeting_points.create () and mb = Coding.Meeting_points.create () in
  let hasher = plain_hasher ~rot:0 in
  let converged = ref false in
  for iter = 0 to 199 do
    if not !converged then begin
      let ha = hasher sa ta ~iter and hb = hasher sb tb ~iter in
      let la = Coding.Transcript.length ta and lb = Coding.Transcript.length tb in
      let msg_a = Coding.Meeting_points.prepare ma ha ~len:la in
      let msg_b = Coding.Meeting_points.prepare mb hb ~len:lb in
      (* Garble the first 5 iterations' messages in one direction. *)
      let msg_b =
        if iter < 5 then Coding.Meeting_points.{ msg_b with hk = msg_b.hk lxor 0x3 } else msg_b
      in
      (match Coding.Meeting_points.process ma ha ~len:la msg_b with
      | `Keep -> ()
      | `Truncate_to x -> Coding.Transcript.truncate ta x);
      (match Coding.Meeting_points.process mb hb ~len:lb msg_a with
      | `Keep -> ()
      | `Truncate_to x -> Coding.Transcript.truncate tb x);
      if
        Coding.Meeting_points.status ma = Coding.Meeting_points.Simulate
        && Coding.Meeting_points.status mb = Coding.Meeting_points.Simulate
        && Coding.Transcript.equal_prefix ta tb = Coding.Transcript.length ta
        && Coding.Transcript.length ta = Coding.Transcript.length tb
      then converged := true
    end
  done;
  Alcotest.(check bool) "converged despite corruption" true !converged

(* ---------- Flag passing ---------- *)

let test_flag_all_continue () =
  let g = Topology.Graph.random_connected rng ~n:9 ~extra_edges:4 in
  let tree = Topology.Graph.bfs_tree g in
  let net = Netsim.Network.create g Netsim.Adversary.Silent in
  let nc = Coding.Flag_passing.run net ~tree ~statuses:(Array.make 9 true) in
  Alcotest.(check bool) "all continue" true (Array.for_all (fun b -> b) nc);
  Alcotest.(check int) "rounds consumed" (Coding.Flag_passing.rounds_needed tree)
    (Netsim.Network.stats net).Netsim.Network.rounds

let test_flag_one_stop_stops_everyone () =
  let g = Topology.Graph.line 7 in
  let tree = Topology.Graph.bfs_tree g in
  List.iter
    (fun dissenter ->
      let net = Netsim.Network.create g Netsim.Adversary.Silent in
      let statuses = Array.make 7 true in
      statuses.(dissenter) <- false;
      let nc = Coding.Flag_passing.run net ~tree ~statuses in
      Alcotest.(check bool)
        (Printf.sprintf "dissenter %d stops all" dissenter)
        true
        (Array.for_all not nc))
    [ 0; 3; 6 ]

let test_flag_deletion_reads_stop () =
  (* Delete one upward flag: the root must see stop, hence everyone. *)
  let g = Topology.Graph.line 4 in
  let tree = Topology.Graph.bfs_tree g in
  (* Node 3 (level 4) sends its flag in round 0 on edge 2-3 (dir 3->2). *)
  let dir = Topology.Graph.dir_id g ~src:3 ~dst:2 in
  let adv = Netsim.Adversary.single ~round:0 ~dir ~addend:2 in
  (* flag bit is true=1; addend 2 maps 1 -> 0: a substitution to stop. *)
  let net = Netsim.Network.create g adv in
  let nc = Coding.Flag_passing.run net ~tree ~statuses:(Array.make 4 true) in
  Alcotest.(check bool) "root stopped" false nc.(0)

let test_flag_forged_continue () =
  (* One party says stop, but the adversary flips the flag back to
     continue on its way up: ancestors continue, the dissenter's own
     netCorrect stays false (it ANDs its own status). *)
  let g = Topology.Graph.line 3 in
  let tree = Topology.Graph.bfs_tree g in
  let statuses = [| true; true; false |] in
  let dir = Topology.Graph.dir_id g ~src:2 ~dst:1 in
  let adv = Netsim.Adversary.single ~round:0 ~dir ~addend:1 in
  (* stop=0, addend 1 -> 1=continue. *)
  let net = Netsim.Network.create g adv in
  let nc = Coding.Flag_passing.run net ~tree ~statuses in
  Alcotest.(check bool) "root fooled" true nc.(0);
  Alcotest.(check bool) "dissenter still stopped" false nc.(2)

(* ---------- Replayer ---------- *)

let test_replayer_matches_noiseless () =
  let g = Topology.Graph.cycle 5 in
  let pi = Protocol.Protocols.random_chatter g ~rounds:120 ~density:0.5 ~seed:4 in
  let inputs = Array.init 5 (fun i -> 100 + i) in
  let reference = Protocol.Pi.run_noiseless pi ~inputs in
  (* Noiseless coded run: outputs must equal the reference — this
     exercises replayer-driven simulation and output extraction. *)
  let params = Coding.Params.algorithm_1 g in
  let r = Coding.Scheme.run ~config:(Coding.Scheme.Config.make ~inputs ()) ~rng:(Util.Rng.create 5) params pi Netsim.Adversary.Silent in
  Alcotest.(check bool) "outputs = noiseless outputs" true (r.Coding.Scheme.outputs = reference)

(* The reference schedule walk: rescan every slot of every round of
   chunk [c] of the reference packing [rf], keep the slots [mine]
   selects, and hand each to [send], then each to [recv s i] with [i]
   its position on its link, taken from a per-link cursor.  Both the
   honest-transcript builder and the reference replayer below are this
   one walk. *)
let walk_chunk rf c ~mine ~send ~recv =
  let open Chunk_ref in
  let cursors = Hashtbl.create 8 in
  Array.iter
    (fun slots ->
      let mine = List.filter mine slots in
      List.iter send mine;
      List.iter
        (fun s ->
          let e = Topology.Graph.edge_id rf.graph s.src s.dst in
          let i = Option.value ~default:0 (Hashtbl.find_opt cursors e) in
          Hashtbl.replace cursors e (i + 1);
          recv s i)
        mine)
    (chunk rf c)

let reference_packing ch =
  Chunk_ref.make (Protocol.Chunking.pi ch) ~k:(Protocol.Chunking.k ch)

(* Every party's transcripts of a noiseless run of chunks 1..n_real:
   [trs.(u).(v)] is u's copy of the link to v. *)
let honest_transcripts ch ~inputs =
  let open Chunk_ref in
  let pi = Protocol.Chunking.pi ch and rf = reference_packing ch in
  let g = pi.Protocol.Pi.graph in
  let n = Topology.Graph.n g in
  let machines = Array.init n (fun party -> pi.Protocol.Pi.spawn ~party ~input:inputs.(party)) in
  let trs = Array.init n (fun _ -> Array.init n (fun _ -> Coding.Transcript.create ())) in
  for c = 1 to n_real rf do
    let sent = Hashtbl.create 16 and rows = Array.make (Topology.Graph.m g) [] in
    walk_chunk rf c
      ~mine:(fun _ -> true)
      ~send:(fun s ->
        Hashtbl.replace sent (s.src, s.dst)
          (match s.pi_round with
          | Some r -> machines.(s.src).Protocol.Pi.send ~round:r ~dst:s.dst
          | None -> false))
      ~recv:(fun s i ->
        let bit = Hashtbl.find sent (s.src, s.dst) and e = Topology.Graph.edge_id g s.src s.dst in
        Option.iter (fun r -> machines.(s.dst).Protocol.Pi.recv ~round:r ~src:s.src bit) s.pi_round;
        assert (i = List.length rows.(e));
        rows.(e) <- Coding.Transcript.sym_bit bit :: rows.(e));
    Array.iteri
      (fun e (u, v) ->
        let row = Array.of_list (List.rev rows.(e)) in
        push trs.(u).(v) row;
        push trs.(v).(u) (Array.copy row))
      (Topology.Graph.edges g)
  done;
  trs

(* The reference replayer: the party's machine after chunks 1..upto,
   recomputing its sends and reading its receives from the records (∗,
   or a record too short for the event, reads as 0).  [transcripts nbr]
   is the link to neighbour id [nbr]. *)
let reference_machine ch ~party ~input ~transcripts ~upto =
  let open Chunk_ref in
  let rf = reference_packing ch in
  let machine = (Protocol.Chunking.pi ch).Protocol.Pi.spawn ~party ~input in
  for c = 1 to min upto (n_real rf) do
    walk_chunk rf c
      ~mine:(fun s -> s.src = party || s.dst = party)
      ~send:(fun s ->
        match s.pi_round with
        | Some r when s.src = party -> ignore (machine.Protocol.Pi.send ~round:r ~dst:s.dst)
        | Some _ | None -> ())
      ~recv:(fun s i ->
        match s.pi_round with
        | Some r when s.dst = party ->
            let ev = record (transcripts s.src) c in
            machine.Protocol.Pi.recv ~round:r ~src:s.src
              (i < Array.length ev && ev.(i) = Coding.Transcript.sym_bit true)
        | Some _ | None -> ())
  done;
  machine

let test_replayer_cache_correctness () =
  (* Build transcripts from a noiseless run of chunks, then check that
     cached incremental replay, cache-stored replay, and fresh replay all
     produce the same machine outputs — including after a truncation,
     which must invalidate the cache. *)
  let g = Topology.Graph.cycle 4 in
  let pi = Protocol.Protocols.random_chatter g ~rounds:120 ~density:0.6 ~seed:41 in
  let ch = Protocol.Chunking.make pi ~k:(Topology.Graph.m g) in
  let inputs = [| 3; 14; 15; 92 |] in
  let trs = honest_transcripts ch ~inputs in
  let n_real = Protocol.Chunking.n_real ch in
  let neighbors = Topology.Graph.neighbors g 0 in
  let transcripts j = trs.(0).(neighbors.(j)) in
  let repl = Coding.Replayer.create ch ~party:0 ~input:inputs.(0) in
  let direct = Coding.Replayer.output repl ~transcripts ~upto:n_real in
  (* The reference: run the whole protocol noiselessly. *)
  let reference = (Protocol.Pi.run_noiseless pi ~inputs).(0) in
  Alcotest.(check int) "replayed output = noiseless output" reference direct;
  (* Cached path: output again (cache hit), then after truncate+repush the
     cache must invalidate and still agree. *)
  Alcotest.(check int) "cache hit agrees" reference
    (Coding.Replayer.output repl ~transcripts ~upto:n_real);
  let nbr = neighbors.(0) in
  let saved = record trs.(0).(nbr) n_real in
  Coding.Transcript.truncate trs.(0).(nbr) (n_real - 1);
  push trs.(0).(nbr) saved;
  Alcotest.(check int) "post-truncation replay agrees" reference
    (Coding.Replayer.output repl ~transcripts ~upto:n_real)

let test_replayer_resumes_from_checkpoint () =
  (* Count spawns: after its first miss the replayer keeps snapshots, so a
     shallow rewind resumes from one instead of re-spawning, while rot
     below every snapshot leaves it nothing to resume from. *)
  let g = Topology.Graph.cycle 4 in
  let pi0 = Protocol.Protocols.random_chatter g ~rounds:120 ~density:0.6 ~seed:41 in
  let spawns = ref 0 in
  let spawn ~party ~input =
    incr spawns;
    pi0.Protocol.Pi.spawn ~party ~input
  in
  let pi =
    Protocol.Pi.make ~graph:g ~rounds:pi0.Protocol.Pi.rounds ~sends_at:(Protocol.Pi.sends_at pi0)
      ~spawn
  in
  let ch = Protocol.Chunking.make pi ~k:(Topology.Graph.m g) in
  (* The reference walks an uncounted copy of the same layout. *)
  let ch0 = Protocol.Chunking.make pi0 ~k:(Topology.Graph.m g) in
  let inputs = [| 3; 14; 15; 92 |] in
  let trs = honest_transcripts ch0 ~inputs in
  let n_real = Protocol.Chunking.n_real ch in
  let neighbors = Topology.Graph.neighbors g 0 in
  let transcripts j = trs.(0).(neighbors.(j)) in
  let by_id nbr = trs.(0).(nbr) in
  let expect upto =
    (reference_machine ch0 ~party:0 ~input:inputs.(0) ~transcripts:by_id ~upto).Protocol.Pi.output ()
  in
  let repl = Coding.Replayer.create ch ~party:0 ~input:inputs.(0) in
  ignore (Coding.Replayer.machine_at repl ~transcripts ~upto:n_real);
  (* A miss (the live machine is past chunk 0) re-spawns and starts the
     snapshots; the walk up stores every chunk. *)
  for upto = 0 to n_real do
    Alcotest.(check int) "walk up agrees" (expect upto) (Coding.Replayer.output repl ~transcripts ~upto)
  done;
  Alcotest.(check int) "spawns before any rewind" 2 !spawns;
  let tr = trs.(0).(neighbors.(0)) in
  let saved = record tr n_real in
  Coding.Transcript.truncate tr (n_real - 1);
  push tr (Array.map (fun s -> if s = 3 then 2 else 3) saved);
  Alcotest.(check int) "shallow rewind agrees" (expect n_real)
    (Coding.Replayer.output repl ~transcripts ~upto:n_real);
  Alcotest.(check int) "shallow rewind resumes from a snapshot" 2 !spawns;
  let c = ref 1 in
  while Coding.Transcript.event_count tr !c = 0 do
    incr c
  done;
  Coding.Transcript.corrupt tr ~chunk:!c ~event:0;
  Alcotest.(check int) "rot below every snapshot agrees" (expect n_real)
    (Coding.Replayer.output repl ~transcripts ~upto:n_real);
  Alcotest.(check int) "rot below every snapshot re-spawns" 3 !spawns

let prop_replayer_matches_reference =
  (* Damaged records: random ∗ symbols, flipped bits and rows cut short
     of the layout.  Then one chunk below the newest snapshot rots, and
     several rounds each truncate one link at a random depth and re-push
     it with fresh damage: each change must invalidate the cached
     machine and exactly the snapshots at or above it.  Replayer and
     reference agree at every prefix, straight after each change and on
     a final sweep. *)
  QCheck.Test.make ~name:"replayer equals the reference walk on damaged transcripts" ~count:30
    QCheck.(triple (int_bound 2) small_nat bool)
    (fun (shape, a, triple_k) ->
      let r = Util.Rng.create ((a * 53) + shape) in
      let g =
        match shape with
        | 0 -> Topology.Graph.random_connected r ~n:(4 + (a mod 4)) ~extra_edges:(a mod 4)
        | 1 -> Topology.Graph.grid ~rows:2 ~cols:(2 + (a mod 3))
        | _ -> Topology.Graph.clique (3 + (a mod 3))
      in
      let m = Topology.Graph.m g and n = Topology.Graph.n g in
      let pi = Protocol.Protocols.random_chatter g ~rounds:(60 + (a mod 80)) ~density:0.5 ~seed:a in
      let ch = Protocol.Chunking.make pi ~k:(if triple_k then 3 * m else m) in
      let n_real = Protocol.Chunking.n_real ch in
      let inputs = Array.init n (fun i -> (a * 7) + i) in
      let honest = honest_transcripts ch ~inputs in
      let party = a mod n in
      let damage row =
        let row =
          if Util.Rng.int r 4 = 0 then Array.sub row 0 (Util.Rng.int r (Array.length row)) else row
        in
        Array.map
          (fun sym ->
            match Util.Rng.int r 8 with
            | 0 -> Coding.Transcript.sym_star
            | 1 -> if sym = 3 then 2 else 3
            | _ -> sym)
          row
      in
      let trs =
        Array.map
          (fun nbr ->
            let tr = Coding.Transcript.create () in
            for c = 1 to n_real do
              push tr (damage (record honest.(party).(nbr) c))
            done;
            (nbr, tr))
          (Topology.Graph.neighbors g party)
      in
      let by_id nbr = List.assoc nbr (Array.to_list trs) in
      let transcripts j = snd trs.(j) in
      let repl = Coding.Replayer.create ch ~party ~input:inputs.(party) in
      let check upto =
        let expect =
          (reference_machine ch ~party ~input:inputs.(party) ~transcripts:by_id ~upto)
            .Protocol.Pi.output ()
        in
        (Coding.Replayer.machine_at repl ~transcripts ~upto).Protocol.Pi.output () = expect
        && Coding.Replayer.output repl ~transcripts ~upto = expect
      in
      (* [n_real] first: right after a change, the cache still holds the
         machine at [n_real].  The sweep up then stores every chunk, so
         snapshots sit below [n_real] (every 4th chunk, thinned). *)
      let agree () = List.for_all check (n_real :: List.init (n_real + 1) Fun.id) in
      let pick () = trs.(Util.Rng.int r (Array.length trs)) in
      let ok = ref (agree ()) in
      (* Rot one event at or below the newest snapshot. *)
      let _, tr = pick () in
      let c = 1 + Util.Rng.int r (4 * (n_real / 4)) in
      let len = Coding.Transcript.event_count tr c in
      if len > 0 then Coding.Transcript.corrupt tr ~chunk:c ~event:(Util.Rng.int r len);
      ok := !ok && check n_real;
      for _ = 1 to 4 do
        let nbr, tr = pick () in
        let from = n_real - (1 + Util.Rng.int r n_real) in
        Coding.Transcript.truncate tr from;
        for c = from + 1 to n_real do
          push tr (damage (record honest.(party).(nbr) c))
        done;
        ok := !ok && check n_real && check (Util.Rng.int r (n_real + 1))
      done;
      !ok && agree ())

(* ---------- Randomness exchange ---------- *)

let test_exchange_clean () =
  let g = Topology.Graph.cycle 6 in
  let net = Netsim.Network.create g Netsim.Adversary.Silent in
  let out = Coding.Randomness_exchange.run net ~rng:(Util.Rng.create 9) in
  Alcotest.(check int) "one outcome per edge" (Topology.Graph.m g) (Array.length out);
  Array.iter
    (fun o ->
      Alcotest.(check bool) "ok" true o.Coding.Randomness_exchange.ok;
      Alcotest.(check bool) "same expanded stream" true
        (Smallbias.Generator.next_word o.Coding.Randomness_exchange.lo_gen
        = Smallbias.Generator.next_word o.Coding.Randomness_exchange.hi_gen))
    out;
  Alcotest.(check int) "fixed round count" (Coding.Randomness_exchange.rounds_needed ())
    (Netsim.Network.stats net).Netsim.Network.rounds

let test_exchange_light_noise_decodes () =
  let g = Topology.Graph.cycle 6 in
  let adv = Netsim.Adversary.iid (Util.Rng.create 10) ~rate:0.02 in
  let net = Netsim.Network.create g adv in
  let out = Coding.Randomness_exchange.run net ~rng:(Util.Rng.create 11) in
  Array.iter (fun o -> Alcotest.(check bool) "ok under 2% noise" true o.Coding.Randomness_exchange.ok) out

let test_exchange_targeted_burst_fails_one_link () =
  let g = Topology.Graph.cycle 6 in
  (* Corrupt the whole codeword on edge 0's used direction — beyond any
     decoding radius, so the endpoint seeds cannot agree. *)
  let rounds = Coding.Randomness_exchange.rounds_needed () in
  let u, v = (Topology.Graph.edges g).(0) in
  let dir = Topology.Graph.dir_id g ~src:(min u v) ~dst:(max u v) in
  let adv = Netsim.Adversary.burst (Util.Rng.create 12) ~start_round:0 ~len:rounds ~dirs:[ dir ] in
  let net = Netsim.Network.create g adv in
  let out = Coding.Randomness_exchange.run net ~rng:(Util.Rng.create 13) in
  Alcotest.(check bool) "edge 0 corrupted" false out.(0).Coding.Randomness_exchange.ok;
  for e = 1 to Topology.Graph.m g - 1 do
    Alcotest.(check bool) "other edges fine" true out.(e).Coding.Randomness_exchange.ok
  done

(* Every link's (lo seed, hi seed, ok) from one exchange, digested.  The
   pins were taken before the modulus search gained its sieve and the
   higher end stopped repeating the lower end's search: any change to
   which modulus [of_seed] picks, to the fallback seed or to the decode
   shows here.  At rate 0.18 some links fail to decode (the fallback
   path), and the rest decode. *)
let exchange_digest g adv =
  let net = Netsim.Network.create g adv in
  let out = Coding.Randomness_exchange.run net ~rng:(Util.Rng.create 42) in
  let seed gen =
    let f, s = Smallbias.Generator.seed gen in
    Printf.sprintf "%x,%x" f s
  in
  let fails = Array.fold_left (fun a o -> if o.Coding.Randomness_exchange.ok then a else a + 1) 0 out in
  let line o =
    Printf.sprintf "%s|%s|%b" (seed o.Coding.Randomness_exchange.lo_gen)
      (seed o.Coding.Randomness_exchange.hi_gen) o.Coding.Randomness_exchange.ok
  in
  (fails, Array.length out, Digest.to_hex (Digest.string (String.concat ";" (Array.to_list (Array.map line out)))))

let test_exchange_pinned () =
  List.iter
    (fun (name, g, silent, noisy) ->
      let fails, m, d = exchange_digest g Netsim.Adversary.Silent in
      Alcotest.(check int) (name ^ ": silent, no failure") 0 fails;
      Alcotest.(check string) (name ^ ": silent digest") silent d;
      let fails, _, d = exchange_digest g (Netsim.Adversary.iid (Util.Rng.create 41) ~rate:0.18) in
      Alcotest.(check bool) (name ^ ": iid 0.18, some links fail, some decode") true
        (fails >= 1 && fails < m);
      Alcotest.(check string) (name ^ ": iid digest") noisy d)
    [
      ( "clique:5",
        Topology.Graph.clique 5,
        "fb54a208570842c98135718e248ae66b",
        "4fcd520465d768230ccd9ba6dcbbdf5f" );
      ( "cycle:6",
        Topology.Graph.cycle 6,
        "76bbdbcb190db5f95eb0ac08e9f7f469",
        "537670939c9a6ac176bd5bce2a4e75bd" );
      ( "grid:4x4",
        Topology.Graph.grid ~rows:4 ~cols:4,
        "08fcc1ada227c9f32bdaf11afb02026f",
        "80389bc603185c4d21daaa5dd349c6ba" );
    ]

(* ---------- Baselines ---------- *)

let test_uncoded_noiseless () =
  let g = Topology.Graph.cycle 5 in
  let pi = Protocol.Protocols.random_chatter g ~rounds:80 ~density:0.5 ~seed:6 in
  let r = Coding.Baseline.uncoded ~rng:(Util.Rng.create 14) pi Netsim.Adversary.Silent in
  Alcotest.(check bool) "success" true r.Coding.Baseline.success;
  Alcotest.(check (float 0.001)) "rate 1.0" 1.0 r.Coding.Baseline.rate_blowup

let test_uncoded_one_error_fails () =
  let g = Topology.Graph.cycle 5 in
  let pi = Protocol.Protocols.random_chatter g ~rounds:80 ~density:0.5 ~seed:6 in
  (* Find some scheduled transmission early on and corrupt it. *)
  let r0 = List.hd (Protocol.Pi.sends_at pi 0) in
  let dir = Topology.Graph.dir_id g ~src:(fst r0) ~dst:(snd r0) in
  let adv = Netsim.Adversary.single ~round:0 ~dir ~addend:1 in
  let r = Coding.Baseline.uncoded ~rng:(Util.Rng.create 14) pi adv in
  Alcotest.(check bool) "one corruption breaks uncoded" false r.Coding.Baseline.success

let test_repetition_resists_scattered_flips () =
  let g = Topology.Graph.cycle 5 in
  let pi = Protocol.Protocols.ring_sum ~n:5 ~bits:8 in
  ignore g;
  let adv = Netsim.Adversary.iid (Util.Rng.create 15) ~rate:0.01 in
  let r = Coding.Baseline.repetition ~rng:(Util.Rng.create 16) ~rep:5 pi adv in
  Alcotest.(check bool) "repetition survives scattered noise" true r.Coding.Baseline.success;
  Alcotest.(check (float 0.001)) "rate = rep" 5.0 r.Coding.Baseline.rate_blowup

let test_repetition_loses_to_targeted_burst () =
  let pi = Protocol.Protocols.ring_sum ~n:5 ~bits:8 in
  let g = pi.Protocol.Pi.graph in
  (* Concentrate corruption on the first transmission's 5 copies. *)
  let u, v = List.hd (Protocol.Pi.sends_at pi 0) in
  let dir = Topology.Graph.dir_id g ~src:u ~dst:v in
  let adv = Netsim.Adversary.burst (Util.Rng.create 17) ~start_round:0 ~len:5 ~dirs:[ dir ] in
  let r = Coding.Baseline.repetition ~rng:(Util.Rng.create 18) ~rep:5 pi adv in
  Alcotest.(check bool) "burst defeats repetition" false r.Coding.Baseline.success

(* A golden fingerprint of both baselines: the outputs digest, cc,
   corruptions and noise fraction of every (baseline, topology,
   adversary) case, pinned so that a change to the transport round the
   baselines drive cannot move their results unnoticed. *)
let baseline_golden =
  [
    ("uncoded", "cycle 6", "silent", "a9b4823957b2a1dce0cc357872137b91", 376, 0, 0x0p+0);
    ("uncoded", "cycle 6", "iid", "2dd32d3feb1c70c45031abe4551dc5a0", 376, 14, 0x1.310572620ae4cp-5);
    ("uncoded", "cycle 6", "burst", "2c38ab0973eaa1ff747a7039e9b17725", 376, 24, 0x1.0572620ae4c41p-4);
    ("uncoded", "line 8", "silent", "003b62b168e3867dfffa740a20e0924e", 434, 0, 0x0p+0);
    ("uncoded", "line 8", "iid", "080520c2b2d87ab9097413328fd71c7a", 434, 17, 0x1.40e281c5038ap-5);
    ("uncoded", "line 8", "burst", "d60ce26f713dc95a3f2ea6009a9737e1", 434, 24, 0x1.c5038a07140e3p-5);
    ("uncoded", "clique 5", "silent", "ec6472bdb8a1bf5e4186c0792de13f9a", 616, 0, 0x0p+0);
    ("uncoded", "clique 5", "iid", "45aa43b93138c7921ec03ea37beb1500", 616, 24, 0x1.3f2b3884fcacep-5);
    ("uncoded", "clique 5", "burst", "0e3128a2d3b38422e77361218906bf1f", 616, 24, 0x1.3f2b3884fcacep-5);
    ("rep 3", "cycle 6", "silent", "a9b4823957b2a1dce0cc357872137b91", 1128, 0, 0x0p+0);
    ("rep 3", "cycle 6", "iid", "a9b4823957b2a1dce0cc357872137b91", 1128, 44, 0x1.3f8bcd29c245p-5);
    ("rep 3", "cycle 6", "burst", "d23e33cdaebe147529de29ba4c30909a", 1128, 24, 0x1.5c9882b931057p-6);
    ("rep 3", "line 8", "silent", "003b62b168e3867dfffa740a20e0924e", 1302, 0, 0x0p+0);
    ("rep 3", "line 8", "iid", "003b62b168e3867dfffa740a20e0924e", 1302, 53, 0x1.4d77f04535dfcp-5);
    ("rep 3", "line 8", "burst", "7f982e1a127602fb24dd139d9989919f", 1302, 24, 0x1.2e025c04b8097p-6);
    ("rep 3", "clique 5", "silent", "ec6472bdb8a1bf5e4186c0792de13f9a", 1848, 0, 0x0p+0);
    ("rep 3", "clique 5", "iid", "ec6472bdb8a1bf5e4186c0792de13f9a", 1848, 74, 0x1.4808dda520237p-5);
    ("rep 3", "clique 5", "burst", "f42f30e31c8aff28832ad021d42f9f32", 1848, 24, 0x1.a98ef606a63bep-7);
    ("rep 5", "cycle 6", "silent", "a9b4823957b2a1dce0cc357872137b91", 1880, 0, 0x0p+0);
    ("rep 5", "cycle 6", "iid", "a9b4823957b2a1dce0cc357872137b91", 1880, 75, 0x1.46cefa8d9df52p-5);
    ("rep 5", "cycle 6", "burst", "d23ebfc873e1f623926c886031fff473", 1880, 24, 0x1.a2509cde3ad35p-7);
    ("rep 5", "line 8", "silent", "003b62b168e3867dfffa740a20e0924e", 2170, 0, 0x0p+0);
    ("rep 5", "line 8", "iid", "003b62b168e3867dfffa740a20e0924e", 2170, 90, 0x1.53c2a7854f0aap-5);
    ("rep 5", "line 8", "burst", "f8d58da4b8b3c8a5b59051e1cc20c48a", 2170, 24, 0x1.6a693b38dcd82p-7);
    ("rep 5", "clique 5", "silent", "ec6472bdb8a1bf5e4186c0792de13f9a", 3080, 0, 0x0p+0);
    ("rep 5", "clique 5", "iid", "ec6472bdb8a1bf5e4186c0792de13f9a", 3080, 123, 0x1.4725e6bb82fep-5);
    ("rep 5", "clique 5", "burst", "94dbc39db0477b5fd6eb4f38a8a8e724", 3080, 24, 0x1.feab8da19447dp-8);
  ]

let test_baseline_golden () =
  let topo = function
    | "cycle 6" -> Topology.Graph.cycle 6
    | "line 8" -> Topology.Graph.line 8
    | _ -> Topology.Graph.clique 5
  in
  let adversary = function
    | "silent" -> Netsim.Adversary.Silent
    | "iid" -> Netsim.Adversary.iid (Util.Rng.create 9) ~rate:0.02
    | _ -> Netsim.Adversary.burst (Util.Rng.create 4) ~start_round:10 ~len:8 ~dirs:[ 0; 1; 3 ]
  in
  let run scheme pi adv =
    let rng = Util.Rng.create 5 in
    match scheme with
    | "uncoded" -> Coding.Baseline.uncoded ~rng pi adv
    | "rep 3" -> Coding.Baseline.repetition ~rng ~rep:3 pi adv
    | _ -> Coding.Baseline.repetition ~rng ~rep:5 pi adv
  in
  let digest outputs =
    Digest.to_hex
      (Digest.string (String.concat "," (Array.to_list (Array.map string_of_int outputs))))
  in
  List.iter
    (fun (scheme, t, a, outputs, cc, corruptions, noise_fraction) ->
      let case = String.concat " / " [ scheme; t; a ] in
      let pi = Protocol.Protocols.random_chatter (topo t) ~rounds:60 ~density:0.5 ~seed:3 in
      let r = run scheme pi (adversary a) in
      Alcotest.(check string) (case ^ ": outputs") outputs (digest r.Coding.Baseline.outputs);
      Alcotest.(check int) (case ^ ": cc") cc r.Coding.Baseline.cc;
      Alcotest.(check int) (case ^ ": corruptions") corruptions r.Coding.Baseline.corruptions;
      Alcotest.(check (float 0.)) (case ^ ": noise fraction") noise_fraction
        r.Coding.Baseline.noise_fraction)
    baseline_golden

(* ---------- Full scheme ---------- *)

let topologies =
  [
    ("line", Topology.Graph.line 5);
    ("cycle", Topology.Graph.cycle 6);
    ("star", Topology.Graph.star 6);
    ("clique", Topology.Graph.clique 4);
    ("random", Topology.Graph.random_connected (Util.Rng.create 21) ~n:7 ~extra_edges:4);
  ]

let test_scheme_noiseless_all_algorithms () =
  List.iter
    (fun (tname, g) ->
      let pi = Protocol.Protocols.random_chatter g ~rounds:120 ~density:0.4 ~seed:8 in
      List.iter
        (fun params ->
          let r = Coding.Scheme.run ~rng:(Util.Rng.create 22) params pi Netsim.Adversary.Silent in
          Alcotest.(check bool)
            (Printf.sprintf "%s on %s noiseless" params.Coding.Params.name tname)
            true r.Coding.Scheme.success)
        [
          Coding.Params.algorithm_1 g;
          Coding.Params.algorithm_a g;
          Coding.Params.algorithm_b g;
          Coding.Params.algorithm_c g;
        ])
    topologies

let test_scheme_oblivious_noise_recovers () =
  let g = Topology.Graph.cycle 6 in
  let pi = Protocol.Protocols.random_chatter g ~rounds:200 ~density:0.4 ~seed:9 in
  List.iteri
    (fun i seed ->
      let adv = Netsim.Adversary.iid (Util.Rng.create seed) ~rate:0.0008 in
      let r =
        Coding.Scheme.run ~rng:(Util.Rng.create (100 + i)) (Coding.Params.algorithm_1 g) pi adv
      in
      Alcotest.(check bool) (Printf.sprintf "survives iid seed %d" seed) true r.Coding.Scheme.success)
    [ 31; 32; 33 ]

let test_scheme_burst_recovers () =
  let g = Topology.Graph.line 5 in
  let pi = Protocol.Protocols.line_flow ~n:5 ~phases:10 ~chat:6 in
  let adv =
    Netsim.Adversary.burst (Util.Rng.create 23) ~start_round:250 ~len:30
      ~dirs:[ Topology.Graph.dir_id g ~src:0 ~dst:1 ]
  in
  let r = Coding.Scheme.run ~rng:(Util.Rng.create 24) (Coding.Params.algorithm_1 g) pi adv in
  Alcotest.(check bool) "burst on first link recovered" true r.Coding.Scheme.success

let test_scheme_ring_sum_correct_value () =
  let pi = Protocol.Protocols.ring_sum ~n:5 ~bits:10 in
  let inputs = [| 17; 250; 3; 999; 64 |] in
  let expected = Array.fold_left ( + ) 0 inputs land 1023 in
  let adv = Netsim.Adversary.iid (Util.Rng.create 25) ~rate:0.001 in
  let r =
    Coding.Scheme.run ~config:(Coding.Scheme.Config.make ~inputs ()) ~rng:(Util.Rng.create 26)
      (Coding.Params.algorithm_1 pi.Protocol.Pi.graph)
      pi adv
  in
  Alcotest.(check bool) "success" true r.Coding.Scheme.success;
  Array.iter (fun o -> Alcotest.(check int) "sum value" expected o) r.Coding.Scheme.outputs

(* The §6.1 collision hunter on one edge, built as every attack is: a
   one-family candidate. *)
let hunter ~graph ~edge ~depth ~rate_denom =
  Coding.Attacks.instantiate ~graph
    {
      Coding.Attacks.default_candidate with
      family = Coding.Attacks.Hunter;
      edges = [ edge ];
      depth;
      rate_denom;
    }

let test_scheme_adaptive_attack_algorithm_b () =
  (* The §6.1 separation: the seed-aware collision hunter hides
     corruptions behind the constant-length hashes of Algorithm 1 but
     finds nothing against Algorithm B's Θ(log m)-bit hashes. *)
  let g = Topology.Graph.cycle 6 in
  let pi = Protocol.Protocols.random_chatter g ~rounds:250 ~density:0.4 ~seed:10 in
  let run seed params =
    let { Coding.Attacks.adversary; spy_hook; stats } =
      hunter ~graph:g ~edge:0 ~depth:4 ~rate_denom:300
    in
    let r =
      Coding.Scheme.run ~config:(Coding.Scheme.Config.make ?spy_hook ())
        ~rng:(Util.Rng.create seed) params pi adversary
    in
    (r, stats)
  in
  let _, stats1 = run 27 (Coding.Params.algorithm_1 g) in
  Alcotest.(check bool) "hunter hides corruptions from Algorithm 1" true
    (stats1.Coding.Attacks.hits > 0);
  let rb, stats_b = run 28 (Coding.Params.algorithm_b g) in
  Alcotest.(check bool) "algorithm B beats the hunter" true rb.Coding.Scheme.success;
  Alcotest.(check int) "hunter finds nothing against B" 0 stats_b.Coding.Attacks.hits

let test_scheme_mp_blind_attack () =
  (* Blinding the consistency checks costs the adversary budget every
     iteration; within a small budget Algorithm B still finishes. *)
  let g = Topology.Graph.cycle 6 in
  let pi = Protocol.Protocols.random_chatter g ~rounds:150 ~density:0.4 ~seed:16 in
  let inst =
    Coding.Attacks.instantiate ~graph:g
      { Coding.Attacks.default_candidate with family = Coding.Attacks.Mp_blind; rate_denom = 3000 }
  in
  let r =
    Coding.Scheme.run ~rng:(Util.Rng.create 29) (Coding.Params.algorithm_b g) pi
      inst.Coding.Attacks.adversary
  in
  Alcotest.(check bool) "survives mp blinding within budget" true r.Coding.Scheme.success

let test_scheme_constant_rate_noiseless () =
  (* Without noise and without early stop, the coded communication is a
     fixed multiple of the chunk count; with early stop, CC/CC(Π) must
     stay bounded as the protocol grows (constant rate). *)
  let g = Topology.Graph.cycle 6 in
  let blowup rounds =
    let pi = Protocol.Protocols.random_chatter g ~rounds ~density:0.5 ~seed:11 in
    let r =
      Coding.Scheme.run ~rng:(Util.Rng.create 28) (Coding.Params.algorithm_1 g) pi
        Netsim.Adversary.Silent
    in
    Alcotest.(check bool) "success" true r.Coding.Scheme.success;
    r.Coding.Scheme.rate_blowup
  in
  let b1 = blowup 200 and b2 = blowup 800 in
  Alcotest.(check bool)
    (Printf.sprintf "rate stays bounded (%.1f vs %.1f)" b1 b2)
    true
    (b2 < b1 *. 1.5)

let test_scheme_trace_progress () =
  let g = Topology.Graph.cycle 5 in
  let pi = Protocol.Protocols.random_chatter g ~rounds:150 ~density:0.5 ~seed:12 in
  let r =
    Coding.Scheme.run ~config:(Coding.Scheme.Config.make ~trace:true ()) ~rng:(Util.Rng.create 29) (Coding.Params.algorithm_1 g) pi
      Netsim.Adversary.Silent
  in
  let trace = Array.of_list r.Coding.Scheme.trace in
  Alcotest.(check bool) "trace nonempty" true (Array.length trace > 0);
  (* Noiseless: G* grows by one chunk per iteration and B* stays 0. *)
  Array.iteri
    (fun i st ->
      Alcotest.(check int) (Printf.sprintf "iter %d g_star" i) (i + 1) st.Coding.Scheme.g_star;
      Alcotest.(check int) (Printf.sprintf "iter %d b_star" i) 0 st.Coding.Scheme.b_star)
    trace

let test_scheme_trace_burst_recovery () =
  let g = Topology.Graph.line 4 in
  let pi = Protocol.Protocols.line_flow ~n:4 ~phases:12 ~chat:4 in
  let adv =
    Netsim.Adversary.burst (Util.Rng.create 30) ~start_round:200 ~len:20
      ~dirs:[ Topology.Graph.dir_id g ~src:0 ~dst:1 ]
  in
  let r =
    Coding.Scheme.run ~config:(Coding.Scheme.Config.make ~trace:true ()) ~rng:(Util.Rng.create 31) (Coding.Params.algorithm_1 g) pi adv
  in
  Alcotest.(check bool) "recovered" true r.Coding.Scheme.success;
  let had_backlog = List.exists (fun st -> st.Coding.Scheme.b_star > 0) r.Coding.Scheme.trace in
  let final = List.nth r.Coding.Scheme.trace (List.length r.Coding.Scheme.trace - 1) in
  Alcotest.(check bool) "burst created backlog" true had_backlog;
  Alcotest.(check int) "backlog cleared" 0 final.Coding.Scheme.b_star;
  Alcotest.(check bool) "all chunks simulated" true
    (final.Coding.Scheme.g_star >= r.Coding.Scheme.chunks_total)

let test_scheme_no_flag_passing_noiseless () =
  (* Ablation: without flag passing the scheme still works when there is
     no noise (flags only matter for containing inconsistency). *)
  let g = Topology.Graph.cycle 5 in
  let pi = Protocol.Protocols.random_chatter g ~rounds:100 ~density:0.4 ~seed:13 in
  let params = { (Coding.Params.algorithm_1 g) with Coding.Params.flag_passing = false } in
  let r = Coding.Scheme.run ~rng:(Util.Rng.create 32) params pi Netsim.Adversary.Silent in
  Alcotest.(check bool) "success without flags" true r.Coding.Scheme.success

let test_scheme_no_early_stop () =
  let g = Topology.Graph.cycle 5 in
  let pi = Protocol.Protocols.random_chatter g ~rounds:60 ~density:0.4 ~seed:14 in
  let params = { (Coding.Params.algorithm_1 g) with Coding.Params.early_stop = false } in
  let r = Coding.Scheme.run ~rng:(Util.Rng.create 33) params pi Netsim.Adversary.Silent in
  Alcotest.(check bool) "success" true r.Coding.Scheme.success;
  let expected_iters =
    (params.Coding.Params.iteration_factor * r.Coding.Scheme.chunks_total)
    + params.Coding.Params.extra_iterations
  in
  Alcotest.(check int) "all iterations run" expected_iters r.Coding.Scheme.iterations_run;
  Alcotest.(check int) "planned rounds match" (Coding.Scheme.planned_rounds params pi)
    r.Coding.Scheme.rounds

let test_scheme_exchange_attack_detected () =
  (* Saturate one link during the randomness exchange: the seed exchange
     on that link fails (counted), and with budget gone the rest of the
     run is noiseless... the scheme should *still* succeed, because a
     desynchronised seed only yields permanent hash mismatch = permanent
     idling on that link?  No: mismatched seeds make hashes incomparable,
     which reads as persistent inconsistency; the paper's budget argument
     (Claim 5.16) says the adversary cannot afford this.  We check the
     accounting: exchange_failures is reported and the noise fraction is
     large. *)
  let g = Topology.Graph.cycle 5 in
  let pi = Protocol.Protocols.random_chatter g ~rounds:60 ~density:0.4 ~seed:15 in
  let rounds = Coding.Randomness_exchange.rounds_needed () in
  let u, v = (Topology.Graph.edges g).(0) in
  let dir = Topology.Graph.dir_id g ~src:(min u v) ~dst:(max u v) in
  let adv = Netsim.Adversary.burst (Util.Rng.create 34) ~start_round:0 ~len:rounds ~dirs:[ dir ] in
  let r = Coding.Scheme.run ~rng:(Util.Rng.create 35) (Coding.Params.algorithm_a g) pi adv in
  Alcotest.(check int) "one exchange failure" 1 r.Coding.Scheme.exchange_failures;
  Alcotest.(check bool) "attack cost is visible" true (r.Coding.Scheme.corruptions >= rounds / 2)

let test_scheme_two_party () =
  (* n = 2 degenerates to the two-party setting of [Hae14]: one link, a
     two-node flag tree.  Everything must still work. *)
  let g = Topology.Graph.line 2 in
  let pi = Protocol.Protocols.pairwise_ip g ~bits:16 in
  let inputs = [| 0xBEEF; 0xCAFE |] in
  let noiseless =
    Coding.Scheme.run ~config:(Coding.Scheme.Config.make ~inputs ()) ~rng:(Util.Rng.create 50) (Coding.Params.algorithm_1 g) pi
      Netsim.Adversary.Silent
  in
  Alcotest.(check bool) "two-party noiseless" true noiseless.Coding.Scheme.success;
  let noisy =
    Coding.Scheme.run ~config:(Coding.Scheme.Config.make ~inputs ()) ~rng:(Util.Rng.create 51) (Coding.Params.algorithm_a g) pi
      (Netsim.Adversary.iid (Util.Rng.create 52) ~rate:0.002)
  in
  Alcotest.(check bool) "two-party noisy (Algorithm A)" true noisy.Coding.Scheme.success

let test_scheme_dense_topologies () =
  List.iter
    (fun (name, g) ->
      let pi = Protocol.Protocols.random_chatter g ~rounds:60 ~density:0.3 ~seed:31 in
      let r =
        Coding.Scheme.run ~rng:(Util.Rng.create 53) (Coding.Params.algorithm_1 g) pi
          (Netsim.Adversary.iid (Util.Rng.create 54) ~rate:0.0003)
      in
      Alcotest.(check bool) (name ^ " under light noise") true r.Coding.Scheme.success)
    [
      ("hypercube", Topology.Graph.hypercube 3);
      ("torus", Topology.Graph.torus ~rows:3 ~cols:3);
      ("grid", Topology.Graph.grid ~rows:3 ~cols:3);
      ("random regular", Topology.Graph.random_regular (Util.Rng.create 55) ~n:8 ~degree:3);
    ]

let test_scheme_fixing_adversary () =
  (* Remark 1: the analysis (and the implementation) covers the fixing
     flavour of oblivious noise too. *)
  let g = Topology.Graph.cycle 6 in
  let pi = Protocol.Protocols.random_chatter g ~rounds:150 ~density:0.4 ~seed:32 in
  let r =
    Coding.Scheme.run ~rng:(Util.Rng.create 56) (Coding.Params.algorithm_1 g) pi
      (Netsim.Adversary.iid_fixing (Util.Rng.create 57) ~rate:0.001)
  in
  Alcotest.(check bool) "survives fixing noise" true r.Coding.Scheme.success

let test_scheme_star_hub_burst () =
  (* The star is the JKL15 topology; a burst on a hub link must heal. *)
  let g = Topology.Graph.star 7 in
  let pi = Protocol.Protocols.broadcast_tree g ~bits:16 in
  let adv = Netsim.Adversary.burst (Util.Rng.create 58) ~start_round:200 ~len:20 ~dirs:[ 0; 1 ] in
  let r = Coding.Scheme.run ~rng:(Util.Rng.create 59) (Coding.Params.algorithm_1 g) pi adv in
  Alcotest.(check bool) "star heals hub burst" true r.Coding.Scheme.success

let test_scheme_algorithm_c_vs_hunter () =
  (* Algorithm C carries non-oblivious-grade hashes: the hunter finds
     nothing against it either. *)
  let g = Topology.Graph.cycle 6 in
  let pi = Protocol.Protocols.random_chatter g ~rounds:150 ~density:0.4 ~seed:33 in
  let { Coding.Attacks.adversary; spy_hook; stats } =
    hunter ~graph:g ~edge:0 ~depth:4 ~rate_denom:300
  in
  let r =
    Coding.Scheme.run ~config:(Coding.Scheme.Config.make ?spy_hook ()) ~rng:(Util.Rng.create 60)
      (Coding.Params.algorithm_c g) pi adversary
  in
  Alcotest.(check bool) "algorithm C succeeds" true r.Coding.Scheme.success;
  Alcotest.(check int) "no hidden corruptions" 0 stats.Coding.Attacks.hits

let prop_scheme_noiseless_random_graphs =
  QCheck.Test.make ~name:"scheme simulates correctly on random graphs (noiseless)" ~count:15
    QCheck.(pair (int_bound 1000) (int_bound 4))
    (fun (seed, extra) ->
      let r = Util.Rng.create (7000 + seed) in
      let n = 4 + (seed mod 5) in
      let g = Topology.Graph.random_connected r ~n ~extra_edges:extra in
      let pi = Protocol.Protocols.random_chatter g ~rounds:(60 + (seed mod 80)) ~density:0.4 ~seed in
      let res =
        Coding.Scheme.run ~rng:(Util.Rng.create seed) (Coding.Params.algorithm_1 g) pi
          Netsim.Adversary.Silent
      in
      res.Coding.Scheme.success)

let prop_scheme_light_noise_random_graphs =
  QCheck.Test.make ~name:"scheme recovers from light iid noise on random graphs" ~count:10
    QCheck.(int_bound 1000)
    (fun seed ->
      let r = Util.Rng.create (9000 + seed) in
      let g = Topology.Graph.random_connected r ~n:5 ~extra_edges:2 in
      let pi = Protocol.Protocols.random_chatter g ~rounds:100 ~density:0.4 ~seed in
      let adv = Netsim.Adversary.iid (Util.Rng.create (seed + 1)) ~rate:0.0005 in
      let res =
        Coding.Scheme.run ~rng:(Util.Rng.create (seed + 2)) (Coding.Params.algorithm_1 g) pi adv
      in
      res.Coding.Scheme.success)

(* A golden fingerprint of one Algorithm 1 trial under fixed-seed iid
   noise.  Any reordering of a link's chunk slots changes the transcript
   layout, hence the hashes and the run, and shows up here. *)
let test_scheme_golden_grid_fingerprint () =
  let g = Topology.Graph.grid ~rows:4 ~cols:4 in
  let pi = Protocol.Protocols.random_chatter g ~rounds:120 ~density:0.4 ~seed:14 in
  let adv = Netsim.Adversary.iid (Util.Rng.create 41) ~rate:0.0002 in
  let r = Coding.Scheme.run ~rng:(Util.Rng.create 42) (Coding.Params.algorithm_1 g) pi adv in
  Alcotest.(check bool) "success" true r.Coding.Scheme.success;
  Alcotest.(check (array int))
    "outputs"
    [|
      77361703401783973; 58751794733014529; 224779136541709462; 31072042349777733;
      173833330276533132; 183396689848541679; 116467146494821599; 48369629091948127;
      47869268898878156; 280682390557572147; 170216442567378038; 194813837005196613;
      18069642369231685; 235803106517006576; 473559463059884; 57719885412017098;
    |]
    r.Coding.Scheme.outputs;
  Alcotest.(check int) "cc" 87463 r.Coding.Scheme.cc;
  Alcotest.(check int) "rounds" 3575 r.Coding.Scheme.rounds;
  Alcotest.(check (float 1e-12)) "rate_blowup" 37.393330483112443 r.Coding.Scheme.rate_blowup;
  Alcotest.(check int) "corruptions" 26 r.Coding.Scheme.corruptions;
  Alcotest.(check int) "iterations" 55 r.Coding.Scheme.iterations_run;
  Alcotest.(check int) "chunks rewound" 619 r.Coding.Scheme.chunks_rewound

(* A golden fingerprint of one Algorithm A trial: exchanged δ-biased
   seeds on K5 under fixed-seed iid noise, with party 2's seeds rotted
   from iteration 1 on.  It pins the biased hash path and the
   meeting-points hash memo's handling of the seed-rot mask, through the
   per-iteration meeting-points state in the trace; party 2 never
   re-syncs, so the run fails in a fixed, recorded way. *)
let test_scheme_golden_algorithm_a_fingerprint () =
  let g = Topology.Graph.clique 5 in
  let pi = Protocol.Protocols.random_chatter g ~rounds:120 ~density:0.4 ~seed:15 in
  let adv = Netsim.Adversary.iid (Util.Rng.create 43) ~rate:0.0005 in
  let faults =
    Faults.Plan.make ~key:"golden-a" [ Faults.Plan.Seed_rot { party = 2; from_iteration = 1 } ]
  in
  let o =
    Coding.Scheme.run_outcome
      ~config:(Coding.Scheme.Config.make ~trace:true ~faults ())
      ~rng:(Util.Rng.create 44) (Coding.Params.algorithm_a g) pi adv
  in
  match o with
  | Faults.Outcome.Degraded (r, d) ->
      Alcotest.(check int) "seed_rot" 956 d.Faults.Outcome.seed_rot;
      Alcotest.(check int) "iterations" 240 d.Faults.Outcome.iterations_run;
      Alcotest.(check bool) "success" false r.Coding.Scheme.success;
      Alcotest.(check (array int))
        "outputs"
        [|
          28979341349045130; 132005826093394967; 133620223106996948; 77461522549374527;
          128309368817649320;
        |]
        r.Coding.Scheme.outputs;
      Alcotest.(check int) "cc" 162277 r.Coding.Scheme.cc;
      Alcotest.(check int) "rounds" 11712 r.Coding.Scheme.rounds;
      Alcotest.(check (float 1e-12)) "rate_blowup" 169.39144050104383 r.Coding.Scheme.rate_blowup;
      Alcotest.(check int) "corruptions" 103 r.Coding.Scheme.corruptions;
      Alcotest.(check int) "iterations run" 240 r.Coding.Scheme.iterations_run;
      Alcotest.(check int) "chunks rewound" 12 r.Coding.Scheme.chunks_rewound;
      Alcotest.(check int) "exchange failures" 0 r.Coding.Scheme.exchange_failures;
      let total f = List.fold_left (fun acc s -> acc + f s) 0 r.Coding.Scheme.trace in
      Alcotest.(check int) "links in MP, summed over iterations" 963
        (total (fun s -> s.Coding.Scheme.links_in_mp));
      Alcotest.(check int) "MP counters k, summed over iterations" 0
        (total (fun s -> s.Coding.Scheme.mp_k_total))
  | o -> Alcotest.fail ("expected degraded, got " ^ Faults.Outcome.label o)

(* A golden fingerprint of one Algorithm B trial: exchanged δ-biased
   seeds with Θ(log m)-bit hashes (τ = [non_oblivious_tau]) on a 5-cycle,
   under the seed-aware collision hunter.  The hunter reads single seed
   words through [Seeds.prefix_bit_sensitivity] at offsets the hash
   kernel does not visit in order, so this pins the generator's random
   access as well as the biased hash path. *)
let test_scheme_golden_algorithm_b_fingerprint () =
  let g = Topology.Graph.cycle 5 in
  let pi = Protocol.Protocols.random_chatter g ~rounds:150 ~density:0.4 ~seed:17 in
  let { Coding.Attacks.adversary; spy_hook; stats } =
    hunter ~graph:g ~edge:0 ~depth:4 ~rate_denom:300
  in
  let r =
    Coding.Scheme.run
      ~config:(Coding.Scheme.Config.make ?spy_hook ())
      ~rng:(Util.Rng.create 47) (Coding.Params.algorithm_b g) pi adversary
  in
  Alcotest.(check bool) "success" true r.Coding.Scheme.success;
  Alcotest.(check (array int))
    "outputs"
    [|
      47747259761951236; 264350255716040901; 273754549381450255; 18986362412900978;
      194093798027061628;
    |]
    r.Coding.Scheme.outputs;
  Alcotest.(check int) "cc" 21034 r.Coding.Scheme.cc;
  Alcotest.(check int) "rounds" 3199 r.Coding.Scheme.rounds;
  Alcotest.(check (float 1e-12)) "rate_blowup" 32.064024390243901 r.Coding.Scheme.rate_blowup;
  Alcotest.(check int) "corruptions" 7 r.Coding.Scheme.corruptions;
  Alcotest.(check int) "iterations" 23 r.Coding.Scheme.iterations_run;
  Alcotest.(check int) "chunks rewound" 50 r.Coding.Scheme.chunks_rewound;
  Alcotest.(check int) "exchange failures" 0 r.Coding.Scheme.exchange_failures;
  Alcotest.(check int) "hunter attempts" 17 stats.Coding.Attacks.attempts;
  Alcotest.(check int) "hunter hits" 2 stats.Coding.Attacks.hits;
  Alcotest.(check int) "hunter corruptions" 7 stats.Coding.Attacks.corruptions_spent

(* A golden fingerprint of one Algorithm 1 trial under party-state
   faults: the centre of a 3×3 grid crashes at iteration 3 (its links go
   dark, its neighbours record ∗ on them) and rejoins at iteration 9 with
   every transcript halved, which forces from-scratch replays; three
   stored symbols rot, so later replays read flipped records.  It pins
   the simulation phase's recording and the replayer's walk on the paths
   the clean goldens above never take. *)
let test_scheme_golden_fault_fingerprint () =
  let g = Topology.Graph.grid ~rows:3 ~cols:3 in
  let pi = Protocol.Protocols.random_chatter g ~rounds:120 ~density:0.4 ~seed:16 in
  let adv = Netsim.Adversary.iid (Util.Rng.create 45) ~rate:0.0005 in
  let faults =
    Faults.Plan.make ~key:"golden-faults"
      [
        Faults.Plan.Crash { party = 4; at_iteration = 3; recover_at = Some 9 };
        Faults.Plan.Transcript_rot { party = 1; at_iteration = 5 };
        Faults.Plan.Transcript_rot { party = 4; at_iteration = 12 };
        Faults.Plan.Transcript_rot { party = 7; at_iteration = 20 };
      ]
  in
  let o =
    Coding.Scheme.run_outcome
      ~config:(Coding.Scheme.Config.make ~faults ())
      ~rng:(Util.Rng.create 46) (Coding.Params.algorithm_1 g) pi adv
  in
  match o with
  | Faults.Outcome.Degraded (r, d) ->
      Alcotest.(check int) "crashed iterations" 6 d.Faults.Outcome.crashed_iterations;
      Alcotest.(check int) "rejoins" 1 d.Faults.Outcome.rejoins;
      Alcotest.(check int) "transcript rot" 3 d.Faults.Outcome.transcript_rot;
      Alcotest.(check bool) "success" true r.Coding.Scheme.success;
      Alcotest.(check (array int))
        "outputs"
        [|
          5172762322291126; 14382836742649075; 125662948659275861; 249155439406883946;
          190641866508567255; 41577246115498727; 34352547804903444; 159071801782401370;
          196578070654033515;
        |]
        r.Coding.Scheme.outputs;
      Alcotest.(check int) "cc" 78496 r.Coding.Scheme.cc;
      Alcotest.(check int) "rounds" 5454 r.Coding.Scheme.rounds;
      Alcotest.(check (float 1e-12)) "rate_blowup" 69.220458553791886 r.Coding.Scheme.rate_blowup;
      Alcotest.(check int) "corruptions" 69 r.Coding.Scheme.corruptions;
      Alcotest.(check int) "iterations" 101 r.Coding.Scheme.iterations_run;
      Alcotest.(check int) "chunks rewound" 600 r.Coding.Scheme.chunks_rewound
  | o -> Alcotest.fail ("expected degraded, got " ^ Faults.Outcome.label o)

(* ---------- the decided meeting-points path ---------- *)

(* [Meeting_points.settle] against the hashing it skips.  Two ends hold
   identical transcripts of ℓ chunks (ℓ = 0 included) and one shared
   memo over a uniform or δ-biased stream; their MP states start in
   Simulate, fresh or left by earlier in-sync steps at other lengths.
   Both ends prepare, exchange untouched messages and process; a third
   state settles.  Both verdicts keep, and all three states are equal. *)
let prop_mp_settle_matches_hashing =
  QCheck.Test.make ~name:"settle ≡ prepare + process on in-sync links" ~count:300
    (QCheck.int_bound 1_000_000)
    (fun seed ->
      let r = Util.Rng.create seed in
      let module MP = Coding.Meeting_points in
      let module T = Coding.Transcript in
      let tau = 1 + Util.Rng.int r 24 in
      let key = Util.Rng.int64 r in
      let stream =
        if Util.Rng.bool r then
          Hashing.Seed_stream.biased (Smallbias.Generator.of_seed (key, 0x5EEDL))
        else Hashing.Seed_stream.uniform ~key
      in
      let seeds = Coding.Seeds.make ~stream ~tau ~wmax:64 ~slot:0 ~slots:1 in
      let chunks =
        List.init (Util.Rng.int r 12) (fun _ ->
            Array.init (1 + Util.Rng.int r 6) (fun _ -> [| 0; 2; 3 |].(Util.Rng.int r 3)))
      in
      let build () =
        let t = T.create () in
        List.iter (push t) chunks;
        t
      in
      let lo = build () and hi = build () in
      let len = T.length lo in
      let memo = Coding.Mp_memo.shared seeds ~lo ~hi in
      let hl = Coding.Mp_memo.hasher memo ~lower:true
      and hh = Coding.Mp_memo.hasher memo ~lower:false in
      let st_lo = MP.create () and st_hi = MP.create () and settled = MP.create () in
      for _ = 1 to Util.Rng.int r 3 do
        let earlier = Util.Rng.int r (len + 3) in
        List.iter (fun st -> MP.settle st ~len:earlier) [ st_lo; st_hi; settled ]
      done;
      let iter = Util.Rng.int r 50 in
      Coding.Mp_memo.start memo ~lower:true ~iter ~rot:0;
      Coding.Mp_memo.start memo ~lower:false ~iter ~rot:0;
      let m_lo = MP.prepare st_lo hl ~len and m_hi = MP.prepare st_hi hh ~len in
      let v_lo = MP.process st_lo hl ~len m_hi and v_hi = MP.process st_hi hh ~len m_lo in
      MP.settle settled ~len;
      v_lo = `Keep && v_hi = `Keep && MP.equal st_lo settled && MP.equal st_hi settled
      && MP.status settled = MP.Simulate
      && MP.k settled = 0)

(* An oblivious pattern as an adaptive strategy with an unbounded
   budget: the same corruptions round for round, but the network reports
   every dir as touched, so the run never takes the decided path.  A
   fixing entry becomes the addend that forces its symbol against the
   bit sent ([ctx.sends]; absent = silence), 0 (free) dropped. *)
let as_adaptive adv =
  let pattern, fixing =
    match adv with
    | Netsim.Adversary.Oblivious p -> (p, false)
    | Netsim.Adversary.Oblivious_fixing p -> (p, true)
    | _ -> invalid_arg "as_adaptive: not an oblivious pattern"
  in
  Netsim.Adversary.Adaptive
    {
      budget = (fun _ -> max_int);
      strategy =
        (fun ctx ->
          let two_m = 2 * Topology.Graph.m ctx.Netsim.Adversary.graph in
          let row = pattern ~round:ctx.Netsim.Adversary.round ~two_m in
          if not fixing then row
          else
            List.filter_map
              (fun (d, v) ->
                let sent =
                  match List.assoc_opt d ctx.Netsim.Adversary.sends with
                  | Some b -> Bool.to_int b
                  | None -> 2
                in
                let a = (((v - sent) mod 3) + 3) mod 3 in
                if a = 0 then None else Some (d, a))
              row);
    }

(* One traced run: its outcome and timing-free export. *)
let traced_run ?faults ?backend ~seed g adv =
  let pi = Protocol.Protocols.random_chatter g ~rounds:60 ~density:0.5 ~seed in
  let sink = Trace.Sink.create () in
  let o =
    Coding.Scheme.run_outcome
      ~config:(Coding.Scheme.Config.make ~trace:true ~sink ?faults ?backend ())
      ~rng:(Util.Rng.create (seed + 1)) (Coding.Params.algorithm_1 g) pi adv
  in
  (o, Trace.Export.jsonl sink)

(* The decided path against runs that never take it: each oblivious
   pattern runs as itself and as [as_adaptive] of itself, on a line, a
   clique and a grid, with and without a fault plan that stalls a link
   and overloads the noise, in lockstep and under keyed jitter (2 units
   at d = 1, 4 units at d = 2).  Everything but [mp_decided] must be equal:
   the result (outputs, cc, corruptions, truncations, rewinds, the
   per-iteration trace), the fault books and the traced export.  The
   oblivious runs must have decided some steps, else nothing was
   compared. *)
let test_decided_mp_differential () =
  let topologies =
    [
      ("line:5", Topology.Graph.line 5);
      ("clique:4", Topology.Graph.clique 4);
      ("grid:3x3", Topology.Graph.grid ~rows:3 ~cols:3);
    ]
  in
  let patterns g =
    let two_m = 2 * Topology.Graph.m g in
    [
      ("iid", Netsim.Adversary.iid (Util.Rng.create 31) ~rate:0.004);
      ("iid_fixing", Netsim.Adversary.iid_fixing (Util.Rng.create 32) ~rate:0.006);
      ( "burst",
        Netsim.Adversary.burst (Util.Rng.create 33) ~start_round:150 ~len:400
          ~dirs:[ 0; 1; two_m - 1 ] );
    ]
  in
  let plan =
    Faults.Plan.make ~key:"decided-mp"
      [
        Faults.Plan.Link_stall { edge = 0; from_round = 300; rounds = 120 };
        Faults.Plan.Noise_overload { factor = 4.; from_round = 700; rounds = 300; rate = 0.002 };
      ]
  in
  let summary o =
    match o with
    | Faults.Outcome.Completed r | Faults.Outcome.Degraded (r, _) ->
        let books =
          match Faults.Outcome.diagnosis o with
          | Some d -> (d.Faults.Outcome.stalled_slots, d.Faults.Outcome.injected)
          | None -> (0, 0)
        in
        (Faults.Outcome.label o, { r with Coding.Scheme.mp_decided = 0 }, books, r.Coding.Scheme.mp_decided)
    | Faults.Outcome.Aborted _ -> Alcotest.fail "unexpected abort"
  in
  let backends =
    [
      ("", Coding.Scheme.Lockstep);
      ("/d1", Coding.Scheme.Live (Live.Config.make ~shards:2 ~ragged_d:1 ~jitter_rate:0.01 ()));
      ("/d2", Coding.Scheme.Live (Live.Config.make ~shards:4 ~ragged_d:2 ~jitter_rate:0.005 ()));
    ]
  in
  List.iter
    (fun (gname, g) ->
      List.iter
        (fun (pname, adv) ->
          List.iter
            (fun (faults, (bname, backend)) ->
              let name =
                Printf.sprintf "%s/%s%s%s" gname pname
                  (if faults = None then "" else "/faults")
                  bname
              in
              let o, tr = traced_run ?faults ~backend ~seed:7 g adv in
              let o', tr' = traced_run ?faults ~backend ~seed:7 g (as_adaptive adv) in
              let label, r, books, decided = summary o and label', r', books', decided' = summary o' in
              Alcotest.(check string) (name ^ ": outcome") label' label;
              Alcotest.(check (array int)) (name ^ ": outputs") r'.Coding.Scheme.outputs
                r.Coding.Scheme.outputs;
              Alcotest.(check int) (name ^ ": cc") r'.Coding.Scheme.cc r.Coding.Scheme.cc;
              Alcotest.(check int) (name ^ ": corruptions") r'.Coding.Scheme.corruptions
                r.Coding.Scheme.corruptions;
              Alcotest.(check int) (name ^ ": truncations") r'.Coding.Scheme.mp_truncations
                r.Coding.Scheme.mp_truncations;
              Alcotest.(check int) (name ^ ": rewinds") r'.Coding.Scheme.rewinds
                r.Coding.Scheme.rewinds;
              Alcotest.(check bool) (name ^ ": whole result") true (r = r');
              Alcotest.(check (pair int int)) (name ^ ": fault books") books' books;
              Alcotest.(check string) (name ^ ": traced export") tr' tr;
              Alcotest.(check int) (name ^ ": adaptive decides nothing") 0 decided';
              Alcotest.(check bool) (name ^ ": oblivious decides") true (decided > 0))
            (List.concat_map (fun f -> List.map (fun b -> (f, b)) backends) [ None; Some plan ]))
        (patterns g))
    topologies

(* [mp_decided] counts only where the path may run: some steps on a
   clean lockstep run, none under an adaptive adversary (it reads the
   sent bits), and some under keyed jitter (d > 0), whose lags and
   pending symbols [Network.touched] reports. *)
let test_decided_mp_gates () =
  let g = Topology.Graph.cycle 6 in
  let pi = Protocol.Protocols.random_chatter g ~rounds:40 ~density:0.5 ~seed:3 in
  let decided ?backend adv =
    let config = Coding.Scheme.Config.make ?backend () in
    (Coding.Scheme.run ~config ~rng:(Util.Rng.create 5) (Coding.Params.algorithm_1 g) pi adv)
      .Coding.Scheme.mp_decided
  in
  Alcotest.(check bool) "silent lockstep decides" true (decided Netsim.Adversary.Silent > 0);
  Alcotest.(check int) "adaptive decides nothing" 0
    (decided (Netsim.Adversary.adaptive_phase_attack ~rate_denom:200 ~phases:[] (Util.Rng.create 4)));
  Alcotest.(check bool) "keyed jitter decides some" true
    (decided
       ~backend:(Coding.Scheme.Live (Live.Config.make ~ragged_d:1 ~jitter_rate:0.01 ()))
       Netsim.Adversary.Silent
    > 0)


let () =
  Alcotest.run "coding"
    [
      ( "transcript",
        [
          Alcotest.test_case "push and read" `Quick test_transcript_push_and_read;
          Alcotest.test_case "serialization layout" `Quick test_transcript_serialization_layout;
          Alcotest.test_case "truncate and stamp" `Quick test_transcript_truncate_stamp;
          Alcotest.test_case "position in serialization" `Quick
            test_transcript_serialization_distinguishes_position;
          Alcotest.test_case "equal prefix" `Quick test_transcript_equal_prefix;
          QCheck_alcotest.to_alcotest prop_transcript_serialization_is_prefix_closed;
          QCheck_alcotest.to_alcotest prop_transcript_model;
        ] );
      ( "seeds",
        [
          Alcotest.test_case "endpoints agree" `Quick test_seeds_endpoints_agree;
          Alcotest.test_case "fields independent" `Quick test_seeds_fields_independent;
          Alcotest.test_case "slots independent" `Quick test_seeds_slots_independent;
        ] );
      ( "meeting points",
        [
          Alcotest.test_case "message roundtrip" `Quick test_mp_message_roundtrip;
          Alcotest.test_case "deleted message reads zero" `Quick test_mp_message_deletion_reads_zero;
          Alcotest.test_case "in sync stays" `Quick test_mp_in_sync_stays;
          Alcotest.test_case "single divergence" `Quick test_mp_single_divergence;
          Alcotest.test_case "length mismatch" `Quick test_mp_length_mismatch;
          Alcotest.test_case "large divergence" `Quick test_mp_large_divergence;
          Alcotest.test_case "empty transcripts" `Quick test_mp_empty_transcripts;
          Alcotest.test_case "total divergence" `Quick test_mp_total_divergence;
          QCheck_alcotest.to_alcotest prop_mp_convergence;
          QCheck_alcotest.to_alcotest prop_mp_converges_under_random_message_noise;
          QCheck_alcotest.to_alcotest prop_mp_memo_matches_plain_hasher;
          QCheck_alcotest.to_alcotest prop_mp_settle_matches_hashing;
          Alcotest.test_case "survives corrupted messages" `Quick
            test_mp_survives_corrupted_messages;
        ] );
      ( "flag passing",
        [
          Alcotest.test_case "all continue" `Quick test_flag_all_continue;
          Alcotest.test_case "one stop stops everyone" `Quick test_flag_one_stop_stops_everyone;
          Alcotest.test_case "deletion reads stop" `Quick test_flag_deletion_reads_stop;
          Alcotest.test_case "forged continue" `Quick test_flag_forged_continue;
        ] );
      ( "replayer",
        [
          Alcotest.test_case "matches noiseless" `Quick test_replayer_matches_noiseless;
          Alcotest.test_case "cache correctness" `Quick test_replayer_cache_correctness;
          Alcotest.test_case "resumes from a checkpoint" `Quick test_replayer_resumes_from_checkpoint;
          QCheck_alcotest.to_alcotest prop_replayer_matches_reference;
        ] );
      ( "randomness exchange",
        [
          Alcotest.test_case "clean" `Quick test_exchange_clean;
          Alcotest.test_case "light noise decodes" `Quick test_exchange_light_noise_decodes;
          Alcotest.test_case "targeted burst fails one link" `Quick
            test_exchange_targeted_burst_fails_one_link;
          Alcotest.test_case "pinned seeds" `Quick test_exchange_pinned;
        ] );
      ( "baselines",
        [
          Alcotest.test_case "uncoded noiseless" `Quick test_uncoded_noiseless;
          Alcotest.test_case "uncoded one error fails" `Quick test_uncoded_one_error_fails;
          Alcotest.test_case "repetition resists scattered" `Quick
            test_repetition_resists_scattered_flips;
          Alcotest.test_case "repetition loses to burst" `Quick
            test_repetition_loses_to_targeted_burst;
          Alcotest.test_case "golden fingerprints" `Quick test_baseline_golden;
        ] );
      ( "scheme",
        [
          Alcotest.test_case "noiseless all algorithms" `Slow test_scheme_noiseless_all_algorithms;
          Alcotest.test_case "oblivious noise recovers" `Quick test_scheme_oblivious_noise_recovers;
          Alcotest.test_case "burst recovers" `Quick test_scheme_burst_recovers;
          Alcotest.test_case "ring sum value" `Quick test_scheme_ring_sum_correct_value;
          Alcotest.test_case "adaptive vs algorithm B" `Quick test_scheme_adaptive_attack_algorithm_b;
          Alcotest.test_case "mp-blind attack" `Quick test_scheme_mp_blind_attack;
          Alcotest.test_case "two-party (n=2)" `Quick test_scheme_two_party;
          Alcotest.test_case "dense topologies" `Quick test_scheme_dense_topologies;
          Alcotest.test_case "fixing adversary" `Quick test_scheme_fixing_adversary;
          Alcotest.test_case "star hub burst" `Quick test_scheme_star_hub_burst;
          Alcotest.test_case "algorithm C vs hunter" `Quick test_scheme_algorithm_c_vs_hunter;
          Alcotest.test_case "constant rate" `Slow test_scheme_constant_rate_noiseless;
          Alcotest.test_case "trace progress" `Quick test_scheme_trace_progress;
          Alcotest.test_case "trace burst recovery" `Quick test_scheme_trace_burst_recovery;
          Alcotest.test_case "no flag passing (noiseless)" `Quick
            test_scheme_no_flag_passing_noiseless;
          Alcotest.test_case "no early stop" `Quick test_scheme_no_early_stop;
          Alcotest.test_case "exchange attack accounting" `Quick
            test_scheme_exchange_attack_detected;
          Alcotest.test_case "golden grid fingerprint" `Quick test_scheme_golden_grid_fingerprint;
          Alcotest.test_case "golden algorithm A fingerprint" `Quick
            test_scheme_golden_algorithm_a_fingerprint;
          Alcotest.test_case "golden algorithm B fingerprint" `Quick
            test_scheme_golden_algorithm_b_fingerprint;
          Alcotest.test_case "golden fault fingerprint" `Quick test_scheme_golden_fault_fingerprint;
          QCheck_alcotest.to_alcotest prop_scheme_noiseless_random_graphs;
          QCheck_alcotest.to_alcotest prop_scheme_deterministic;
          QCheck_alcotest.to_alcotest prop_scheme_light_noise_random_graphs;
          Alcotest.test_case "decided MP ≡ never decided" `Quick test_decided_mp_differential;
          Alcotest.test_case "decided MP gates" `Quick test_decided_mp_gates;
        ] );
    ]
