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
  let inputs = [| 1; 2; 3; 4; 5 |] in
  let o1 = Pi.run_noiseless pi ~inputs in
  let o2 = Pi.run_noiseless pi ~inputs in
  Alcotest.(check bool) "deterministic" true (o1 = o2);
  let o3 = Pi.run_noiseless pi ~inputs:[| 1; 2; 3; 4; 6 |] in
  Alcotest.(check bool) "outputs depend on inputs" true (o1 <> o3)

let test_random_chatter_valid () =
  let g = Topology.Graph.random_connected rng ~n:8 ~extra_edges:5 in
  let pi = Protocols.random_chatter g ~rounds:100 ~density:0.4 ~seed:3 in
  Alcotest.(check bool) "some communication" true (Pi.cc pi > 0);
  Alcotest.(check bool) "not fully utilised" true (Pi.cc pi < 100 * 2 * Topology.Graph.m g);
  let inputs = Array.init 8 (fun i -> i * 17) in
  Alcotest.(check bool) "deterministic" true
    (Pi.run_noiseless pi ~inputs = Pi.run_noiseless pi ~inputs)

let test_cc_counts_transmissions () =
  let pi = Protocols.ring_sum ~n:4 ~bits:5 in
  (* 2 laps * 4 hops * 5 bits = 40 transmissions. *)
  Alcotest.(check int) "cc" 40 (Pi.cc pi)

let chatter_spawn =
  (Protocols.random_chatter (Topology.Graph.line 3) ~rounds:1 ~density:0. ~seed:0).Pi.spawn

let test_validate_catches_bad_schedule () =
  let g = Topology.Graph.line 3 in
  match Pi.make ~graph:g ~rounds:1 ~sends_at:(fun _ -> [ (0, 2) ]) ~spawn:chatter_spawn with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument"

(* The round stamps must tell rounds apart: a link reused in the next
   round is fine, twice in one round is not, and a non-adjacent pair is
   refused before it is looked up. *)
let test_validate_round_stamps () =
  let g = Topology.Graph.line 3 in
  let with_sends rounds sends_at = Pi.make ~graph:g ~rounds ~sends_at ~spawn:chatter_spawn in
  let raises name rounds sends_at fragment =
    match with_sends rounds sends_at with
    | exception Invalid_argument msg ->
        let n = String.length fragment in
        let rec has i = i + n <= String.length msg && (String.sub msg i n = fragment || has (i + 1)) in
        Alcotest.(check bool) (name ^ ": " ^ msg) true (has 0)
    | _ -> Alcotest.fail (name ^ ": expected Invalid_argument")
  in
  ignore (with_sends 3 (fun _ -> [ (0, 1); (1, 0); (1, 2) ]));
  raises "non-adjacent" 2 (fun r -> if r = 1 then [ (0, 1); (0, 2) ] else []) "non-adjacent 0->2";
  raises "duplicate" 3 (fun r -> if r = 2 then [ (1, 2); (2, 1); (1, 2) ] else [ (1, 2) ])
    "round 2 schedules 1->2 twice"

(* [Pi.make] over random per-round pair lists, some of them non-adjacent
   or repeated within a round: it raises exactly the message for the
   first offending pair (rounds in order, then list order), or it builds
   a Π that gives back every round's list and counts their lengths. *)
let prop_make_compiles_or_names_the_fault =
  QCheck.Test.make ~name:"Pi.make compiles or names the first fault" ~count:200
    QCheck.(pair small_nat small_nat)
    (fun (a, b) ->
      let r = Util.Rng.create ((a * 7057) + b) in
      let n = 2 + (a mod 5) in
      let g = Topology.Graph.random_connected r ~n ~extra_edges:(b mod 3) in
      let edges = Array.to_list (Topology.Graph.edges g) in
      let adjacent u v = List.mem (u, v) edges || List.mem (v, u) edges in
      let pair () =
        if Util.Rng.int r 8 = 0 then (Util.Rng.int r n, Util.Rng.int r n)
        else
          let u, v = List.nth edges (Util.Rng.int r (List.length edges)) in
          if Util.Rng.int r 2 = 0 then (u, v) else (v, u)
      in
      let rounds = Util.Rng.int r 6 in
      let lists = Array.init rounds (fun _ -> List.init (Util.Rng.int r 5) (fun _ -> pair ())) in
      let fault =
        let rec scan rd =
          if rd = rounds then None
          else
            let rec go seen = function
              | [] -> scan (rd + 1)
              | (u, v) :: rest ->
                  let msg fmt = Some (Printf.sprintf fmt rd u v) in
                  if not (adjacent u v) then msg "Pi.make: round %d schedules non-adjacent %d->%d"
                  else if List.mem (u, v) seen then msg "Pi.make: round %d schedules %d->%d twice"
                  else go ((u, v) :: seen) rest
            in
            go [] lists.(rd)
        in
        scan 0
      in
      let sends_at rd = lists.(rd) in
      match (Pi.make ~graph:g ~rounds ~sends_at ~spawn:chatter_spawn, fault) with
      | exception Invalid_argument msg -> fault = Some msg
      | pi, None ->
          pi.Pi.rounds = rounds
          && List.for_all (fun rd -> Pi.sends_at pi rd = lists.(rd)) (List.init rounds Fun.id)
          && Pi.cc pi = Array.fold_left (fun acc l -> acc + List.length l) 0 lists
      | _, Some _ -> false)

(* --- chunking --- *)

(* Every (chunk, party) entry of lib's view, as (party, round offset,
   is_send, peer, Π round or -1). *)
let view_entries ch ~chunk_index =
  let g = (Chunking.pi ch).Pi.graph in
  List.concat_map
    (fun party ->
      let lo, hi = Chunking.party_view ch ~chunk_index ~party in
      List.init (hi - lo) (fun i ->
          let e = lo + i in
          ( party,
            Chunking.entry_round ch e,
            Chunking.entry_is_send ch e,
            (Topology.Graph.neighbors g party).(Chunking.entry_nbr ch e),
            Chunking.entry_pi_round ch ~chunk_index e )))
    (List.init (Topology.Graph.n g) Fun.id)

(* The reference packer's slots of chunk [i] on [edge], each (src, dst)
   encoded as the dir id {!Chunking.link_slots_full} reports. *)
let ref_link_slots rf i ~edge =
  Array.map
    (fun (roff, src, dst, pad) -> (roff, Topology.Graph.dir_id rf.Chunk_ref.graph ~src ~dst, pad))
    (Chunk_ref.link_slots rf i ~edge)

let check_chunking pi k =
  let ch = Chunking.make pi ~k in
  let rf = Chunk_ref.make pi ~k in
  let g = pi.Pi.graph in
  let m = Topology.Graph.m g in
  let k5 = 5 * k in
  Alcotest.(check int) "n_real = reference" (Chunk_ref.n_real rf) (Chunking.n_real ch);
  for i = 1 to Chunking.n_real ch + 2 do
    let sends = List.filter (fun (_, _, send, _, _) -> send) (view_entries ch ~chunk_index:i) in
    (* 1. Every chunk (real and dummy) carries exactly 5K transmissions. *)
    Alcotest.(check int) (Printf.sprintf "chunk %d has 5K bits" i) k5 (List.length sends);
    Alcotest.(check bool) "chunk fits in max_rounds" true
      (List.for_all (fun (_, roff, _, _, _) -> roff < Chunking.max_rounds ch) sends);
    (* 2. Each directed link appears at least once per chunk, so every
       party sends at least one bit to each neighbor. *)
    Array.iter
      (fun (u, v) ->
        Alcotest.(check bool) "dir u->v present" true
          (List.exists (fun (p, _, _, q, _) -> p = u && q = v) sends);
        Alcotest.(check bool) "dir v->u present" true
          (List.exists (fun (p, _, _, q, _) -> p = v && q = u) sends))
      (Topology.Graph.edges g)
  done;
  (* 3. Real rounds are all present exactly once, in order: each chunk
     plays rounds after the previous chunk's, and every scheduled
     transmission is played once. *)
  let played = ref [] and last = ref (-1) in
  for i = 1 to Chunking.n_real ch do
    let rounds =
      List.filter_map
        (fun (p, _, send, q, r) -> if send && r >= 0 then Some (r, p, q) else None)
        (view_entries ch ~chunk_index:i)
    in
    List.iter
      (fun (r, _, _) -> Alcotest.(check bool) "chunks play rounds in order" true (r > !last))
      rounds;
    last := List.fold_left (fun acc (r, _, _) -> max acc r) !last rounds;
    played := rounds @ !played
  done;
  let scheduled =
    List.concat_map
      (fun r -> List.map (fun (u, v) -> (r, u, v)) (Pi.sends_at pi r))
      (List.init pi.Pi.rounds Fun.id)
  in
  Alcotest.(check (list (triple int int int))) "all protocol rounds chunked once"
    (List.sort compare scheduled) (List.sort compare !played);
  (* 4. Per-link event layout equals the reference packing's. *)
  for i = 1 to Chunking.n_real ch + 2 do
    for e = 0 to m - 1 do
      let slots = Chunking.link_slots_full ch ~chunk_index:i ~edge:e in
      Alcotest.(check bool) "link slots = reference" true (slots = ref_link_slots rf i ~edge:e);
      Alcotest.(check int) "events count matches" (Array.length slots)
        (Chunking.events_on_link ch ~chunk_index:i ~edge:e)
    done
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
    (Array.for_all (fun (_, _, pad) -> pad) dummy);
  let real = Chunking.link_slots_full ch ~chunk_index:1 ~edge:0 in
  let n = Array.length real in
  Alcotest.(check bool) "real chunk ends with a pad" true
    (n > 0 && (fun (_, _, pad) -> pad) real.(n - 1));
  Alcotest.(check bool) "slots = reference" true
    (real = ref_link_slots (Chunk_ref.make pi ~k:(Topology.Graph.m pi.Pi.graph)) 1 ~edge:0)

(* The reference per-party view: the reference packing's link rescans
   of the party's edges, one entry per slot it sends or receives, with
   the slot's position in its link scan as the event index; sorted by
   round offset, sends first, then schedule order.  Entries are (round
   offset, is_send, neighbour index, Π round or -1, event index). *)
let scan_party_view rf ~chunk_index ~party =
  let g = rf.Chunk_ref.graph in
  let rounds = Chunk_ref.chunk rf chunk_index in
  let position roff src dst =
    let rec go i = function
      | [] -> assert false
      | s :: rest ->
          if s.Chunk_ref.src = src && s.Chunk_ref.dst = dst then (i, s) else go (i + 1) rest
    in
    go 0 rounds.(roff)
  in
  let acc = ref [] in
  Array.iteri
    (fun j peer ->
      Array.iteri
        (fun i (roff, src, dst, _) ->
          let pos, s = position roff src dst in
          let pi_round = Option.value ~default:(-1) s.Chunk_ref.pi_round in
          let send = src = party in
          acc := ((roff, (if send then 0 else 1), pos), (roff, send, j, pi_round, i)) :: !acc)
        (Chunk_ref.link_slots rf chunk_index ~edge:(Topology.Graph.edge_id g party peer)))
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
      let ch = Chunking.make pi ~k and rf = Chunk_ref.make pi ~k in
      let n_real = Chunking.n_real ch in
      let ok = ref (n_real = Chunk_ref.n_real rf) in
      for chunk_index = 1 to n_real + 2 do
        for edge = 0 to m - 1 do
          let scan = ref_link_slots rf chunk_index ~edge in
          ok :=
            !ok
            && Chunking.link_slots_full ch ~chunk_index ~edge = scan
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
          ok := !ok && view = scan_party_view rf ~chunk_index ~party
        done
      done;
      let brute horizon =
        let worst = ref 0 in
        for edge = 0 to m - 1 do
          let bits = ref 0 in
          for chunk_index = 1 to horizon do
            bits := !bits + 32 + (2 * Array.length (Chunk_ref.link_slots rf chunk_index ~edge))
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
      Alcotest.check_raises (name ^ " chunk 0") (Invalid_argument "Chunking: chunk_index < 1")
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
  Alcotest.check_raises "party_view chunk 0" (Invalid_argument "Chunking: chunk_index < 1")
    (fun () -> ignore (Chunking.party_view ch ~chunk_index:0 ~party:0))

(* [Pi.machine.output] is computable at any point, so asking it must
   not change the machine: over every protocol constructor, a twin
   whose machines are asked for their output at random rounds sends
   exactly what the unasked run sends, and ends on the same outputs. *)
let prop_output_leaves_sends =
  QCheck.Test.make ~name:"mid-run output leaves later sends unchanged" ~count:25
    QCheck.(pair small_nat small_nat)
    (fun (a, b) ->
      let r = Util.Rng.create ((a * 7919) + b) in
      let g = Topology.Graph.random_connected r ~n:(4 + (a mod 5)) ~extra_edges:(b mod 4) in
      List.for_all
        (fun pi ->
          let n = Topology.Graph.n pi.Pi.graph in
          let inputs = Array.init n (fun _ -> Util.Rng.int r 1024) in
          let spawn () = Array.init n (fun party -> pi.Pi.spawn ~party ~input:inputs.(party)) in
          let plain = spawn () and asked = spawn () in
          let same = ref true in
          for round = 0 to pi.Pi.rounds - 1 do
            if Util.Rng.int r 4 = 0 then Array.iter (fun m -> ignore (m.Pi.output ())) asked;
            let sent =
              List.map
                (fun (u, v) ->
                  let bit = plain.(u).Pi.send ~round ~dst:v in
                  if asked.(u).Pi.send ~round ~dst:v <> bit then same := false;
                  (u, v, bit))
                (Pi.sends_at pi round)
            in
            List.iter
              (fun (u, v, bit) ->
                plain.(v).Pi.recv ~round ~src:u bit;
                asked.(v).Pi.recv ~round ~src:u bit)
              sent
          done;
          !same && Array.for_all2 (fun m m' -> m.Pi.output () = m'.Pi.output ()) plain asked)
        [
          Protocols.ring_sum ~n:5 ~bits:4;
          Protocols.line_flow ~n:5 ~phases:3 ~chat:4;
          Protocols.broadcast_tree g ~bits:5;
          Protocols.pairwise_ip g ~bits:6;
          Protocols.gossip_max g ~bits:6;
          Protocols.convergecast_sum g ~bits:5;
          Protocols.random_chatter g ~rounds:40 ~density:0.5 ~seed:(Util.Rng.int r 1000);
        ])

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
      for chunk_index = 1 to Chunking.n_real ch + 1 do
        let sends = List.filter (fun (_, _, send, _, _) -> send) (view_entries ch ~chunk_index) in
        ok := !ok && List.length sends = 5 * k
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
          QCheck_alcotest.to_alcotest prop_make_compiles_or_names_the_fault;
          QCheck_alcotest.to_alcotest prop_output_leaves_sends;
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
