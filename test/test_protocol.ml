(* Tests for the noiseless-protocol abstraction, the concrete protocol
   library, and the chunking machinery of §3.2. *)

open Protocol

let rng = Util.Rng.create 0xAB

(* --- concrete protocols compute the right thing --- *)

let test_ring_sum_correct () =
  for _ = 1 to 10 do
    let n = 3 + Util.Rng.int rng 8 in
    let bits = 4 + Util.Rng.int rng 6 in
    let pi = Protocols.ring_sum ~n ~bits in
    Pi.validate pi;
    let inputs = Array.init n (fun _ -> Util.Rng.int rng (1 lsl bits)) in
    let expected = Array.fold_left ( + ) 0 inputs land ((1 lsl bits) - 1) in
    let outputs = Pi.run_noiseless pi ~inputs in
    Array.iteri
      (fun p o -> Alcotest.(check int) (Printf.sprintf "party %d has the sum" p) expected o)
      outputs
  done

let test_broadcast_tree_correct () =
  List.iter
    (fun g ->
      let bits = 8 in
      let pi = Protocols.broadcast_tree g ~bits in
      Pi.validate pi;
      let n = Topology.Graph.n g in
      let inputs = Array.init n (fun i -> 1000 + i) in
      let expected = inputs.(0) land ((1 lsl bits) - 1) in
      let outputs = Pi.run_noiseless pi ~inputs in
      Array.iteri
        (fun p o -> Alcotest.(check int) (Printf.sprintf "party %d got root value" p) expected o)
        outputs)
    [
      Topology.Graph.line 6;
      Topology.Graph.star 6;
      Topology.Graph.binary_tree 7;
      Topology.Graph.random_connected rng ~n:9 ~extra_edges:4;
    ]

let test_pairwise_ip_correct () =
  let g = Topology.Graph.cycle 5 in
  let bits = 6 in
  let pi = Protocols.pairwise_ip g ~bits in
  Pi.validate pi;
  let inputs = Array.init 5 (fun _ -> Util.Rng.int rng (1 lsl bits)) in
  let ip x y = Util.Bitvec.parity64 (Int64.of_int (x land y)) in
  let expected p =
    Array.fold_left
      (fun acc v -> acc lxor ip inputs.(p) inputs.(v))
      0
      (Topology.Graph.neighbors g p)
  in
  let outputs = Pi.run_noiseless pi ~inputs in
  Array.iteri
    (fun p o -> Alcotest.(check int) (Printf.sprintf "party %d ip sum" p) (expected p) o)
    outputs

let test_line_flow_valid_and_deterministic () =
  let pi = Protocols.line_flow ~n:5 ~phases:3 ~chat:4 in
  Pi.validate pi;
  let inputs = [| 1; 2; 3; 4; 5 |] in
  let o1 = Pi.run_noiseless pi ~inputs in
  let o2 = Pi.run_noiseless pi ~inputs in
  Alcotest.(check bool) "deterministic" true (o1 = o2);
  let o3 = Pi.run_noiseless pi ~inputs:[| 1; 2; 3; 4; 6 |] in
  Alcotest.(check bool) "outputs depend on inputs" true (o1 <> o3)

let test_random_chatter_valid () =
  let g = Topology.Graph.random_connected rng ~n:8 ~extra_edges:5 in
  let pi = Protocols.random_chatter g ~rounds:100 ~density:0.4 ~seed:3 in
  Pi.validate pi;
  Alcotest.(check bool) "some communication" true (Pi.cc pi > 0);
  Alcotest.(check bool) "not fully utilised" true (Pi.cc pi < 100 * 2 * Topology.Graph.m g);
  let inputs = Array.init 8 (fun i -> i * 17) in
  Alcotest.(check bool) "deterministic" true
    (Pi.run_noiseless pi ~inputs = Pi.run_noiseless pi ~inputs)

let test_cc_counts_transmissions () =
  let pi = Protocols.ring_sum ~n:4 ~bits:5 in
  (* 2 laps * 4 hops * 5 bits = 40 transmissions. *)
  Alcotest.(check int) "cc" 40 (Pi.cc pi)

let test_validate_catches_bad_schedule () =
  let g = Topology.Graph.line 3 in
  let bad =
    Pi.
      {
        graph = g;
        rounds = 1;
        sends_at = (fun _ -> [ (0, 2) ]);
        spawn = (fun ~party:_ ~input -> Protocols.random_chatter g ~rounds:1 ~density:0. ~seed:0
                                        |> fun p -> p.Pi.spawn ~party:0 ~input);
      }
  in
  match Pi.validate bad with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "expected Invalid_argument"

(* The round stamps must tell rounds apart: a link reused in the next
   round is fine, twice in one round is not, and a non-adjacent pair is
   refused before it is looked up. *)
let test_validate_round_stamps () =
  let g = Topology.Graph.line 3 in
  let chatter = Protocols.random_chatter g ~rounds:1 ~density:0. ~seed:0 in
  let with_sends rounds sends_at = { chatter with Pi.rounds; sends_at } in
  let raises name pi fragment =
    match Pi.validate pi with
    | exception Invalid_argument msg ->
        let n = String.length fragment in
        let rec has i = i + n <= String.length msg && (String.sub msg i n = fragment || has (i + 1)) in
        Alcotest.(check bool) (name ^ ": " ^ msg) true (has 0)
    | () -> Alcotest.fail (name ^ ": expected Invalid_argument")
  in
  Pi.validate (with_sends 3 (fun _ -> [ (0, 1); (1, 0); (1, 2) ]));
  raises "non-adjacent" (with_sends 2 (fun r -> if r = 1 then [ (0, 1); (0, 2) ] else [])) "non-adjacent 0->2";
  raises "duplicate" (with_sends 3 (fun r -> if r = 2 then [ (1, 2); (2, 1); (1, 2) ] else [ (1, 2) ]))
    "round 2 schedules 1->2 twice"

(* --- chunking --- *)

let check_chunking pi k =
  let ch = Chunking.make pi ~k in
  let g = pi.Pi.graph in
  let m = Topology.Graph.m g in
  let k5 = 5 * k in
  (* 1. Every chunk (real and dummy) carries exactly 5K transmissions. *)
  for i = 1 to Chunking.n_real ch + 2 do
    let c = Chunking.chunk ch i in
    let comm = Array.fold_left (fun acc slots -> acc + List.length slots) 0 c.Chunking.rounds in
    Alcotest.(check int) (Printf.sprintf "chunk %d has 5K bits" i) k5 comm;
    Alcotest.(check bool) "chunk fits in max_rounds" true
      (Array.length c.Chunking.rounds <= Chunking.max_rounds ch);
    (* 2. Each directed link appears at least once per chunk, so every
       party sends at least one bit to each neighbor. *)
    let dir_count = Hashtbl.create 16 in
    Array.iter
      (List.iter (fun s ->
           let key = (s.Chunking.src, s.Chunking.dst) in
           Hashtbl.replace dir_count key (1 + Option.value ~default:0 (Hashtbl.find_opt dir_count key))))
      c.Chunking.rounds;
    Array.iter
      (fun (u, v) ->
        Alcotest.(check bool) "dir u->v present" true (Hashtbl.mem dir_count (min u v, max u v));
        Alcotest.(check bool) "dir v->u present" true (Hashtbl.mem dir_count (max u v, min u v)))
      (Topology.Graph.edges g)
  done;
  (* 3. Real rounds are all present exactly once, in order. *)
  let seen = ref [] in
  for i = 1 to Chunking.n_real ch do
    Array.iter
      (List.iter (fun s ->
           match s.Chunking.pi_round with Some r -> seen := r :: !seen | None -> ()))
      (Chunking.chunk ch i).Chunking.rounds
  done;
  let rounds_seen = List.sort_uniq compare !seen in
  let expected_rounds =
    List.filter (fun r -> pi.Pi.sends_at r <> []) (List.init pi.Pi.rounds (fun r -> r))
  in
  Alcotest.(check (list int)) "all protocol rounds chunked" expected_rounds rounds_seen;
  (* 4. Per-link event layout is consistent with the schedule. *)
  for e = 0 to m - 1 do
    let slots = Chunking.link_slots ch ~chunk_index:1 ~edge:e in
    Alcotest.(check int) "events count matches"
      (Array.length slots)
      (Chunking.events_on_link ch ~chunk_index:1 ~edge:e);
    Array.iter
      (fun (_, src, dst) ->
        Alcotest.(check int) "slots belong to the edge" e (Topology.Graph.edge_id g src dst))
      slots
  done;
  ch

let test_chunking_ring () =
  let pi = Protocols.ring_sum ~n:5 ~bits:8 in
  let ch = check_chunking pi (Topology.Graph.m pi.Pi.graph) in
  Alcotest.(check bool) "multiple chunks" true (Chunking.n_real ch >= 1)

let test_chunking_random_chatter () =
  let g = Topology.Graph.random_connected rng ~n:7 ~extra_edges:4 in
  let pi = Protocols.random_chatter g ~rounds:200 ~density:0.5 ~seed:9 in
  ignore (check_chunking pi (Topology.Graph.m g))

let test_chunking_k_larger_than_m () =
  let pi = Protocols.ring_sum ~n:4 ~bits:6 in
  ignore (check_chunking pi (3 * Topology.Graph.m pi.Pi.graph))

let test_chunking_rejects_small_k () =
  let pi = Protocols.ring_sum ~n:5 ~bits:4 in
  Alcotest.check_raises "k < m" (Invalid_argument "Chunking.make: k < m") (fun () ->
      ignore (Chunking.make pi ~k:(Topology.Graph.m pi.Pi.graph - 1)))

let test_serialized_bits () =
  let pi = Protocols.ring_sum ~n:4 ~bits:6 in
  let ch = Chunking.make pi ~k:(Topology.Graph.m pi.Pi.graph) in
  for e = 0 to Topology.Graph.m pi.Pi.graph - 1 do
    Alcotest.(check int) "header + 2 bits per event"
      (32 + (2 * Chunking.events_on_link ch ~chunk_index:1 ~edge:e))
      (Chunking.serialized_chunk_bits ch ~chunk_index:1 ~edge:e)
  done;
  Alcotest.(check bool) "word bound positive" true (Chunking.max_transcript_words ch ~horizon:10 > 0);
  Alcotest.(check bool) "word bound monotone" true
    (Chunking.max_transcript_words ch ~horizon:20 >= Chunking.max_transcript_words ch ~horizon:10)

let prop_link_slots_partition_chunk =
  (* The per-link slot views partition the chunk's transmissions: summing
     events_on_link over all edges recovers exactly 5K, for real and
     dummy chunks alike. *)
  QCheck.Test.make ~name:"link slots partition each chunk" ~count:25
    QCheck.(pair small_nat small_nat)
    (fun (a, b) ->
      let r = Util.Rng.create ((a * 977) + b) in
      let n = 4 + (a mod 6) in
      let g = Topology.Graph.random_connected r ~n ~extra_edges:(b mod 5) in
      let pi = Protocols.random_chatter g ~rounds:(40 + (b mod 60)) ~density:0.4 ~seed:b in
      let k = Topology.Graph.m g in
      let ch = Chunking.make pi ~k in
      let ok = ref true in
      for c = 1 to Chunking.n_real ch + 1 do
        let total = ref 0 in
        for e = 0 to Topology.Graph.m g - 1 do
          total := !total + Chunking.events_on_link ch ~chunk_index:c ~edge:e
        done;
        ok := !ok && !total = 5 * k
      done;
      !ok)

let test_link_slots_full_pads_marked () =
  let pi = Protocols.ring_sum ~n:4 ~bits:6 in
  let ch = Chunking.make pi ~k:(Topology.Graph.m pi.Pi.graph) in
  (* Dummy chunks are pure padding; real chunks end in padding. *)
  let dummy = Chunking.link_slots_full ch ~chunk_index:(Chunking.n_real ch + 1) ~edge:0 in
  Alcotest.(check bool) "dummy chunk all pads" true
    (Array.for_all (fun (_, _, _, pad) -> pad) dummy);
  let real = Chunking.link_slots_full ch ~chunk_index:1 ~edge:0 in
  let n = Array.length real in
  Alcotest.(check bool) "real chunk ends with a pad" true
    (n > 0 && (fun (_, _, _, pad) -> pad) real.(n - 1));
  Alcotest.(check bool) "slot views agree" true
    (Array.map (fun (r, s, d, _) -> (r, s, d)) real = Chunking.link_slots ch ~chunk_index:1 ~edge:0)

(* The reference layout: rescan the whole chunk for the slots on [edge],
   in schedule order, marking virtual padding.  The per-link layouts
   [Chunking] reads off its per-party view must reproduce it exactly. *)
let scan_link_slots ch ~chunk_index ~edge =
  let g = (Chunking.pi ch).Pi.graph in
  let acc = ref [] in
  Array.iteri
    (fun roff slots ->
      List.iter
        (fun s ->
          let open Chunking in
          if Topology.Graph.edge_id g s.src s.dst = edge then
            acc := (roff, s.src, s.dst, s.pi_round = None) :: !acc)
        slots)
    (Chunking.chunk ch chunk_index).Chunking.rounds;
  Array.of_list (List.rev !acc)

(* The reference per-party view: the link rescans of the party's edges,
   one entry per slot it sends or receives, with the slot's position in
   its link scan as the event index; sorted by round offset, sends
   first, then schedule order.  Entries are (round offset, is_send,
   neighbour index, Π round or -1, event index). *)
let scan_party_view ch ~chunk_index ~party =
  let g = (Chunking.pi ch).Pi.graph in
  let rounds = (Chunking.chunk ch chunk_index).Chunking.rounds in
  let position roff src dst =
    let rec go i = function
      | [] -> assert false
      | s :: rest -> if s.Chunking.src = src && s.Chunking.dst = dst then (i, s) else go (i + 1) rest
    in
    go 0 rounds.(roff)
  in
  let acc = ref [] in
  Array.iteri
    (fun j peer ->
      Array.iteri
        (fun i (roff, src, dst, _) ->
          let pos, s = position roff src dst in
          let pi_round = Option.value ~default:(-1) s.Chunking.pi_round in
          let send = src = party in
          acc := ((roff, (if send then 0 else 1), pos), (roff, send, j, pi_round, i)) :: !acc)
        (scan_link_slots ch ~chunk_index ~edge:(Topology.Graph.edge_id g party peer)))
    (Topology.Graph.neighbors g party);
  List.map snd (List.sort compare !acc)

let prop_index_matches_scan =
  QCheck.Test.make ~name:"per-link index equals the chunk rescan" ~count:30
    QCheck.(triple (int_bound 2) small_nat bool)
    (fun (shape, a, triple_k) ->
      let r = Util.Rng.create ((a * 31) + shape) in
      let g =
        match shape with
        | 0 -> Topology.Graph.random_connected r ~n:(4 + (a mod 6)) ~extra_edges:(a mod 5)
        | 1 -> Topology.Graph.grid ~rows:(2 + (a mod 3)) ~cols:(2 + (a / 3 mod 3))
        | _ -> Topology.Graph.clique (3 + (a mod 4))
      in
      let m = Topology.Graph.m g in
      let k = if triple_k then 3 * m else m in
      let pi = Protocols.random_chatter g ~rounds:(40 + (a mod 80)) ~density:0.4 ~seed:a in
      let ch = Chunking.make pi ~k in
      let n_real = Chunking.n_real ch in
      let ok = ref true in
      for chunk_index = 1 to n_real + 2 do
        for edge = 0 to m - 1 do
          let scan = scan_link_slots ch ~chunk_index ~edge in
          ok :=
            !ok
            && Chunking.link_slots_full ch ~chunk_index ~edge = scan
            && Chunking.link_slots ch ~chunk_index ~edge
               = Array.map (fun (roff, src, dst, _) -> (roff, src, dst)) scan
            && Chunking.events_on_link ch ~chunk_index ~edge = Array.length scan
        done;
        for party = 0 to Topology.Graph.n g - 1 do
          let lo, hi = Chunking.party_view ch ~chunk_index ~party in
          let view =
            List.init (hi - lo) (fun i ->
                let e = lo + i in
                ( Chunking.entry_round ch e,
                  Chunking.entry_is_send ch e,
                  Chunking.entry_nbr ch e,
                  Chunking.entry_pi_round ch ~chunk_index e,
                  Chunking.entry_event ch e ))
          in
          ok := !ok && view = scan_party_view ch ~chunk_index ~party
        done
      done;
      let brute horizon =
        let worst = ref 0 in
        for edge = 0 to m - 1 do
          let bits = ref 0 in
          for chunk_index = 1 to horizon do
            bits := !bits + 32 + (2 * Array.length (scan_link_slots ch ~chunk_index ~edge))
          done;
          worst := max !worst !bits
        done;
        (!worst + 63) / 64
      in
      let planned = Coding.Scheme.planned_iterations (Coding.Params.algorithm_1 g) pi in
      !ok
      && List.for_all
           (fun horizon -> Chunking.max_transcript_words ch ~horizon = brute horizon)
           [ 1; n_real; n_real + 1; n_real + planned + 2 ])

let test_accessors_reject_out_of_range () =
  let pi = Protocols.ring_sum ~n:4 ~bits:6 in
  let m = Topology.Graph.m pi.Pi.graph in
  let ch = Chunking.make pi ~k:m in
  let accessors =
    [
      ("link_slots", fun ~chunk_index ~edge -> ignore (Chunking.link_slots ch ~chunk_index ~edge));
      ( "link_slots_full",
        fun ~chunk_index ~edge -> ignore (Chunking.link_slots_full ch ~chunk_index ~edge) );
      ("events_on_link", fun ~chunk_index ~edge -> ignore (Chunking.events_on_link ch ~chunk_index ~edge));
      ( "serialized_chunk_bits",
        fun ~chunk_index ~edge -> ignore (Chunking.serialized_chunk_bits ch ~chunk_index ~edge) );
    ]
  in
  List.iter
    (fun (name, f) ->
      List.iter
        (fun chunk_index ->
          List.iter
            (fun edge ->
              Alcotest.check_raises
                (Printf.sprintf "%s chunk %d edge %d" name chunk_index edge)
                (Invalid_argument "Chunking: edge out of range")
                (fun () -> f ~chunk_index ~edge))
            [ -1; m; m + 7 ])
        [ 1; Chunking.n_real ch + 1 ];
      Alcotest.check_raises (name ^ " chunk 0") (Invalid_argument "Chunking.chunk: index < 1")
        (fun () -> f ~chunk_index:0 ~edge:0))
    accessors;
  let n = Topology.Graph.n pi.Pi.graph in
  List.iter
    (fun chunk_index ->
      List.iter
        (fun party ->
          Alcotest.check_raises
            (Printf.sprintf "party_view chunk %d party %d" chunk_index party)
            (Invalid_argument "Chunking: party out of range")
            (fun () -> ignore (Chunking.party_view ch ~chunk_index ~party)))
        [ -1; n; n + 7 ])
    [ 1; Chunking.n_real ch + 1 ];
  Alcotest.check_raises "party_view chunk 0" (Invalid_argument "Chunking.chunk: index < 1")
    (fun () -> ignore (Chunking.party_view ch ~chunk_index:0 ~party:0))

let prop_chunking_exact_5k =
  QCheck.Test.make ~name:"chunks are exactly 5K on random graphs" ~count:25
    QCheck.(pair small_nat small_nat)
    (fun (a, b) ->
      let r = Util.Rng.create ((a * 131) + b) in
      let n = 4 + (a mod 8) in
      let g = Topology.Graph.random_connected r ~n ~extra_edges:(b mod 6) in
      let pi = Protocols.random_chatter g ~rounds:(50 + (b mod 100)) ~density:0.3 ~seed:a in
      let k = Topology.Graph.m g in
      let ch = Chunking.make pi ~k in
      let ok = ref true in
      for i = 1 to Chunking.n_real ch + 1 do
        let c = Chunking.chunk ch i in
        let comm = Array.fold_left (fun acc s -> acc + List.length s) 0 c.Chunking.rounds in
        ok := !ok && comm = 5 * k
      done;
      !ok)

let () =
  Alcotest.run "protocol"
    [
      ( "protocols",
        [
          Alcotest.test_case "ring sum" `Quick test_ring_sum_correct;
          Alcotest.test_case "broadcast tree" `Quick test_broadcast_tree_correct;
          Alcotest.test_case "pairwise ip" `Quick test_pairwise_ip_correct;
          Alcotest.test_case "line flow" `Quick test_line_flow_valid_and_deterministic;
          Alcotest.test_case "random chatter" `Quick test_random_chatter_valid;
          Alcotest.test_case "cc" `Quick test_cc_counts_transmissions;
          Alcotest.test_case "validate" `Quick test_validate_catches_bad_schedule;
          Alcotest.test_case "validate round stamps" `Quick test_validate_round_stamps;
        ] );
      ( "chunking",
        [
          Alcotest.test_case "ring" `Quick test_chunking_ring;
          Alcotest.test_case "random chatter" `Quick test_chunking_random_chatter;
          Alcotest.test_case "k > m" `Quick test_chunking_k_larger_than_m;
          Alcotest.test_case "rejects small k" `Quick test_chunking_rejects_small_k;
          Alcotest.test_case "serialized bits" `Quick test_serialized_bits;
          QCheck_alcotest.to_alcotest prop_chunking_exact_5k;
          QCheck_alcotest.to_alcotest prop_link_slots_partition_chunk;
          Alcotest.test_case "pad slots marked" `Quick test_link_slots_full_pads_marked;
          QCheck_alcotest.to_alcotest prop_index_matches_scan;
          Alcotest.test_case "out-of-range edge and index" `Quick test_accessors_reject_out_of_range;
        ] );
    ]
