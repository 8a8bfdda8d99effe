(* Tests for the coding library: transcripts, seed layout, the
   meeting-points mechanism (its convergence contract), flag passing,
   replay, the randomness exchange, baselines, and the full scheme. *)

let rng = Util.Rng.create 0xC0D1

(* ---------- Transcript ---------- *)

let chunk_events seed len =
  Array.init len (fun i ->
      match (seed + i) mod 3 with 0 -> Coding.Transcript.sym_star | 1 -> 2 | _ -> 3)

let test_transcript_push_and_read () =
  let t = Coding.Transcript.create () in
  Alcotest.(check int) "empty" 0 (Coding.Transcript.length t);
  Coding.Transcript.push_chunk t ~events:(chunk_events 0 5);
  Coding.Transcript.push_chunk t ~events:(chunk_events 1 3);
  Alcotest.(check int) "two chunks" 2 (Coding.Transcript.length t);
  Alcotest.(check bool) "events roundtrip" true (Coding.Transcript.events t 1 = chunk_events 0 5);
  Alcotest.(check bool) "events roundtrip 2" true (Coding.Transcript.events t 2 = chunk_events 1 3)

let test_transcript_serialization_layout () =
  let t = Coding.Transcript.create () in
  Coding.Transcript.push_chunk t ~events:(chunk_events 0 4);
  (* 32 header bits + 2 bits per event. *)
  Alcotest.(check int) "prefix bits 1" (32 + 8) (Coding.Transcript.prefix_bits t 1);
  Coding.Transcript.push_chunk t ~events:(chunk_events 1 6);
  Alcotest.(check int) "prefix bits 2" (32 + 8 + 32 + 12) (Coding.Transcript.prefix_bits t 2);
  Alcotest.(check int) "serialized = prefix at len"
    (Coding.Transcript.prefix_bits t 2)
    (Coding.Transcript.serialized_bits t);
  Alcotest.(check int) "prefix 0" 0 (Coding.Transcript.prefix_bits t 0)

let test_transcript_truncate_version () =
  let t = Coding.Transcript.create () in
  for i = 0 to 4 do
    Coding.Transcript.push_chunk t ~events:(chunk_events i 4)
  done;
  let v0 = Coding.Transcript.version t in
  Coding.Transcript.truncate t 5;
  Alcotest.(check int) "no-op truncate keeps version" v0 (Coding.Transcript.version t);
  Coding.Transcript.truncate t 3;
  Alcotest.(check int) "length" 3 (Coding.Transcript.length t);
  Alcotest.(check bool) "version bumped" true (Coding.Transcript.version t > v0);
  (* Re-push after truncation: chunk numbering and serialization stay
     consistent. *)
  Coding.Transcript.push_chunk t ~events:(chunk_events 9 4);
  Alcotest.(check bool) "chunk 4 replaced" true (Coding.Transcript.events t 4 = chunk_events 9 4)

let test_transcript_serialization_distinguishes_position () =
  (* Two transcripts with identical chunk contents at different chunk
     numbers serialize differently (footnote 11: chunk numbers break the
     h(x) = h(x ∘ 0) degeneracy). *)
  let a = Coding.Transcript.create () and b = Coding.Transcript.create () in
  Coding.Transcript.push_chunk a ~events:(chunk_events 0 4);
  Coding.Transcript.push_chunk b ~events:(chunk_events 1 4);
  Coding.Transcript.push_chunk b ~events:(chunk_events 0 4);
  (* chunk 1 of a = chunk 2 of b, but serializations of those chunks
     differ because of the embedded chunk number. *)
  Alcotest.(check bool) "serializations differ" false
    (Util.Bitvec.equal (Coding.Transcript.serialized a) (Coding.Transcript.serialized b))

let test_transcript_equal_prefix () =
  let a = Coding.Transcript.create () and b = Coding.Transcript.create () in
  for i = 0 to 3 do
    Coding.Transcript.push_chunk a ~events:(chunk_events i 4);
    Coding.Transcript.push_chunk b ~events:(chunk_events i 4)
  done;
  Alcotest.(check int) "full agreement" 4 (Coding.Transcript.equal_prefix a b);
  Coding.Transcript.push_chunk a ~events:(chunk_events 7 4);
  Coding.Transcript.push_chunk b ~events:(chunk_events 8 4);
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

(* Send every wire bit of [msg] through a packed receive buffer; [lost t]
   drops bit [t] (a deletion). *)
let mp_transmit ?(lost = fun _ -> false) ~tau msg =
  let packed = Array.make 5 0 in
  for t = 0 to Coding.Meeting_points.message_bits ~tau - 1 do
    if (not (lost t)) && Coding.Meeting_points.wire_bit ~tau msg t then
      Coding.Meeting_points.receive_bit ~tau packed t
  done;
  Coding.Meeting_points.decode_packed packed

let test_mp_message_roundtrip () =
  let tau = 9 in
  let msg = Coding.Meeting_points.{ hk = 0x1F5; hp1 = 3; hp2 = 0x1FF; ht1 = 0; ht2 = 0x0AA } in
  Alcotest.(check int) "wire size" (5 * tau) (Coding.Meeting_points.message_bits ~tau);
  Alcotest.(check bool) "roundtrip" true (mp_transmit ~tau msg = msg);
  Alcotest.(check bool) "first bit is hk's lsb" true (Coding.Meeting_points.wire_bit ~tau msg 0);
  Alcotest.(check bool) "field order" true
    (Coding.Meeting_points.wire_bit ~tau msg tau
    && (not (Coding.Meeting_points.wire_bit ~tau msg (tau + 2)))
    && Coding.Meeting_points.wire_bit ~tau msg ((4 * tau) + 1));
  Alcotest.check_raises "bit beyond the message rejected"
    (Invalid_argument "Meeting_points.wire_bit: bit out of range") (fun () ->
      ignore (Coding.Meeting_points.wire_bit ~tau msg (5 * tau)));
  Alcotest.check_raises "short buffer rejected"
    (Invalid_argument "Meeting_points.decode_packed: wrong length") (fun () ->
      ignore (Coding.Meeting_points.decode_packed (Array.make 4 0)))

let test_mp_message_deletion_reads_zero () =
  let tau = 4 in
  let msg = Coding.Meeting_points.{ hk = 0xF; hp1 = 0xF; hp2 = 0xF; ht1 = 0xF; ht2 = 0xF } in
  Alcotest.(check bool) "all zero" true
    (mp_transmit ~lost:(fun _ -> true) ~tau msg
    = Coding.Meeting_points.{ hk = 0; hp1 = 0; hp2 = 0; ht1 = 0; ht2 = 0 });
  Alcotest.(check bool) "one deleted bit reads zero" true
    (mp_transmit ~lost:(fun t -> t = (2 * tau) + 1) ~tau msg
    = Coding.Meeting_points.{ msg with hp2 = 0xD })

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
  let hasher seeds tr ~iter =
    Coding.Meeting_points.
      {
        h_int = (fun ~field v -> Coding.Seeds.hash_int seeds ~iter ~field v);
        h_prefix =
          (fun ~field p ->
            Coding.Seeds.hash_prefix seeds ~iter ~field (Coding.Transcript.serialized tr)
              ~bits:(Coding.Transcript.prefix_bits tr p));
      }
  in
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
    Coding.Transcript.push_chunk ta ~events:ev;
    Coding.Transcript.push_chunk tb ~events:ev
  done;
  for i = 0 to extra_a - 1 do
    Coding.Transcript.push_chunk ta ~events:(chunk_events (1000 + i) 4)
  done;
  for i = 0 to extra_b - 1 do
    Coding.Transcript.push_chunk tb ~events:(chunk_events (2000 + i) 4)
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
      let hasher seeds tr ~iter =
        Coding.Meeting_points.
          {
            h_int = (fun ~field v -> Coding.Seeds.hash_int seeds ~iter ~field v);
            h_prefix =
              (fun ~field p ->
                Coding.Seeds.hash_prefix seeds ~iter ~field (Coding.Transcript.serialized tr)
                  ~bits:(Coding.Transcript.prefix_bits tr p));
          }
      in
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

let prop_transcript_serialization_is_prefix_closed =
  (* The serialization of the first i chunks is literally a bit-prefix of
     the serialization of the first j >= i chunks — what makes prefix
     hashing by bit-length sound. *)
  QCheck.Test.make ~name:"transcript serialization is prefix-closed" ~count:100
    QCheck.(small_list (int_bound 6))
    (fun sizes ->
      let t = Coding.Transcript.create () in
      List.iteri (fun i sz -> Coding.Transcript.push_chunk t ~events:(chunk_events i (sz + 1))) sizes;
      let full = Coding.Transcript.serialized t in
      let ok = ref true in
      for i = 0 to Coding.Transcript.length t do
        let bits = Coding.Transcript.prefix_bits t i in
        let partial = Coding.Transcript.create () in
        for j = 1 to i do
          Coding.Transcript.push_chunk partial ~events:(Coding.Transcript.events t j)
        done;
        let p = Coding.Transcript.serialized partial in
        for b = 0 to bits - 1 do
          if Util.Bitvec.get p b <> Util.Bitvec.get full b then ok := false
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
  let hasher seeds tr ~iter =
    Coding.Meeting_points.
      {
        h_int = (fun ~field v -> Coding.Seeds.hash_int seeds ~iter ~field v);
        h_prefix =
          (fun ~field p ->
            Coding.Seeds.hash_prefix seeds ~iter ~field (Coding.Transcript.serialized tr)
              ~bits:(Coding.Transcript.prefix_bits tr p));
      }
  in
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

let test_replayer_cache_correctness () =
  (* Build transcripts from a noiseless run of chunks, then check that
     cached incremental replay, cache-stored replay, and fresh replay all
     produce the same machine outputs — including after a truncation,
     which must invalidate the cache. *)
  let g = Topology.Graph.cycle 4 in
  let pi = Protocol.Protocols.random_chatter g ~rounds:120 ~density:0.6 ~seed:41 in
  let ch = Protocol.Chunking.make pi ~k:(Topology.Graph.m g) in
  let inputs = [| 3; 14; 15; 92 |] in
  (* Construct party 0's transcripts by simulating all chunks honestly:
     every event records the true sent bit.  We recover the true bits by
     running machines for everyone. *)
  let n = Topology.Graph.n g in
  let machines = Array.init n (fun party -> pi.Protocol.Pi.spawn ~party ~input:inputs.(party)) in
  let trs = Array.init n (fun _ -> Array.init n (fun _ -> Coding.Transcript.create ())) in
  for c = 1 to Protocol.Chunking.n_real ch do
    let chunk = Protocol.Chunking.chunk ch c in
    (* Record per-edge events in schedule order. *)
    let events = Hashtbl.create 8 in
    Array.iter
      (fun slots ->
        let bits =
          List.map
            (fun s ->
              match s.Protocol.Chunking.pi_round with
              | Some r ->
                  (s, Some (machines.(s.Protocol.Chunking.src).Protocol.Pi.send ~round:r
                              ~dst:s.Protocol.Chunking.dst))
              | None -> (s, Some false))
            slots
        in
        List.iter
          (fun (s, bit) ->
            match (s.Protocol.Chunking.pi_round, bit) with
            | Some r, Some b ->
                machines.(s.Protocol.Chunking.dst).Protocol.Pi.recv ~round:r
                  ~src:s.Protocol.Chunking.src b
            | _ -> ())
          bits;
        List.iter
          (fun (s, bit) ->
            let e = Topology.Graph.edge_id g s.Protocol.Chunking.src s.Protocol.Chunking.dst in
            let cur = Option.value ~default:[] (Hashtbl.find_opt events e) in
            Hashtbl.replace events e (Coding.Transcript.sym_bit (Option.get bit) :: cur))
          bits)
      chunk.Protocol.Chunking.rounds;
    Array.iteri
      (fun e (u, v) ->
        let ev = Array.of_list (List.rev (Option.value ~default:[] (Hashtbl.find_opt events e))) in
        Coding.Transcript.push_chunk trs.(u).(v) ~events:ev;
        Coding.Transcript.push_chunk trs.(v).(u) ~events:(Array.copy ev))
      (Topology.Graph.edges g)
  done;
  let n_real = Protocol.Chunking.n_real ch in
  let neighbors = Topology.Graph.neighbors g 0 in
  let transcripts nbr = trs.(0).(nbr) in
  let repl = Coding.Replayer.create ch ~party:0 ~input:inputs.(0) ~neighbors in
  let direct = Coding.Replayer.output repl ~transcripts ~upto:n_real in
  (* The reference: run the whole protocol noiselessly. *)
  let reference = (Protocol.Pi.run_noiseless pi ~inputs).(0) in
  Alcotest.(check int) "replayed output = noiseless output" reference direct;
  (* Cached path: output again (cache hit), then after truncate+repush the
     cache must invalidate and still agree. *)
  Alcotest.(check int) "cache hit agrees" reference
    (Coding.Replayer.output repl ~transcripts ~upto:n_real);
  let nbr = neighbors.(0) in
  let saved = Coding.Transcript.events trs.(0).(nbr) n_real in
  Coding.Transcript.truncate trs.(0).(nbr) (n_real - 1);
  Coding.Transcript.push_chunk trs.(0).(nbr) ~events:saved;
  Alcotest.(check int) "post-truncation replay agrees" reference
    (Coding.Replayer.output repl ~transcripts ~upto:n_real)

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
  let r0 = List.hd (pi.Protocol.Pi.sends_at 0) in
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
  let u, v = List.hd (pi.Protocol.Pi.sends_at 0) in
  let dir = Topology.Graph.dir_id g ~src:u ~dst:v in
  let adv = Netsim.Adversary.burst (Util.Rng.create 17) ~start_round:0 ~len:5 ~dirs:[ dir ] in
  let r = Coding.Baseline.repetition ~rng:(Util.Rng.create 18) ~rep:5 pi adv in
  Alcotest.(check bool) "burst defeats repetition" false r.Coding.Baseline.success

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

let test_scheme_adaptive_attack_algorithm_b () =
  (* The §6.1 separation: the seed-aware collision hunter hides
     corruptions behind the constant-length hashes of Algorithm 1 but
     finds nothing against Algorithm B's Θ(log m)-bit hashes. *)
  let g = Topology.Graph.cycle 6 in
  let pi = Protocol.Protocols.random_chatter g ~rounds:250 ~density:0.4 ~seed:10 in
  let attack () = Coding.Attacks.collision_hunter ~graph:g ~edge:0 ~depth:4 ~rate_denom:300 () in
  let adv1, hook1, stats1 = attack () in
  let r1 = Coding.Scheme.run ~config:(Coding.Scheme.Config.make ~spy_hook:hook1 ()) ~rng:(Util.Rng.create 27) (Coding.Params.algorithm_1 g) pi adv1 in
  ignore r1;
  Alcotest.(check bool) "hunter hides corruptions from Algorithm 1" true
    (stats1.Coding.Attacks.hits > 0);
  let adv_b, hook_b, stats_b = attack () in
  let rb = Coding.Scheme.run ~config:(Coding.Scheme.Config.make ~spy_hook:hook_b ()) ~rng:(Util.Rng.create 28) (Coding.Params.algorithm_b g) pi adv_b in
  Alcotest.(check bool) "algorithm B beats the hunter" true rb.Coding.Scheme.success;
  Alcotest.(check int) "hunter finds nothing against B" 0 stats_b.Coding.Attacks.hits

let test_scheme_mp_blind_attack () =
  (* Blinding the consistency checks costs the adversary budget every
     iteration; within a small budget Algorithm B still finishes. *)
  let g = Topology.Graph.cycle 6 in
  let pi = Protocol.Protocols.random_chatter g ~rounds:150 ~density:0.4 ~seed:16 in
  let adv = Coding.Attacks.mp_blind ~rate_denom:3000 in
  let r = Coding.Scheme.run ~rng:(Util.Rng.create 29) (Coding.Params.algorithm_b g) pi adv in
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
  let adv, hook, stats = Coding.Attacks.collision_hunter ~graph:g ~edge:0 ~depth:4 ~rate_denom:300 () in
  let r = Coding.Scheme.run ~config:(Coding.Scheme.Config.make ~spy_hook:hook ()) ~rng:(Util.Rng.create 60) (Coding.Params.algorithm_c g) pi adv in
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

let () =
  Alcotest.run "coding"
    [
      ( "transcript",
        [
          Alcotest.test_case "push and read" `Quick test_transcript_push_and_read;
          Alcotest.test_case "serialization layout" `Quick test_transcript_serialization_layout;
          Alcotest.test_case "truncate and version" `Quick test_transcript_truncate_version;
          Alcotest.test_case "position in serialization" `Quick
            test_transcript_serialization_distinguishes_position;
          Alcotest.test_case "equal prefix" `Quick test_transcript_equal_prefix;
          QCheck_alcotest.to_alcotest prop_transcript_serialization_is_prefix_closed;
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
        ] );
      ( "randomness exchange",
        [
          Alcotest.test_case "clean" `Quick test_exchange_clean;
          Alcotest.test_case "light noise decodes" `Quick test_exchange_light_noise_decodes;
          Alcotest.test_case "targeted burst fails one link" `Quick
            test_exchange_targeted_burst_fails_one_link;
        ] );
      ( "baselines",
        [
          Alcotest.test_case "uncoded noiseless" `Quick test_uncoded_noiseless;
          Alcotest.test_case "uncoded one error fails" `Quick test_uncoded_one_error_fails;
          Alcotest.test_case "repetition resists scattered" `Quick
            test_repetition_resists_scattered_flips;
          Alcotest.test_case "repetition loses to burst" `Quick
            test_repetition_loses_to_targeted_burst;
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
          QCheck_alcotest.to_alcotest prop_scheme_noiseless_random_graphs;
          QCheck_alcotest.to_alcotest prop_scheme_deterministic;
          QCheck_alcotest.to_alcotest prop_scheme_light_noise_random_graphs;
        ] );
    ]
