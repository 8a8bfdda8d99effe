(* Tests for the synchronous noisy network: faithful delivery without
   noise, exact insertion/deletion/substitution semantics of the
   additive adversary, and the differential guarantee that the network
   round ([commit] on an Active buffer) is observationally identical to
   an independent dense reference round kept in this file — same
   deliveries, same books, same trace events. *)

open Netsim

let g4 = Topology.Graph.cycle 4

(* List-shaped round helpers over the network's buffer: most tests here
   state their expectations as (src, dst, bit) send/delivery lists. *)
let delivered_of_active net act =
  let out = ref [] in
  Network.Active.iter act (fun ~dir bit ->
      let src, dst = Network.link_ends net ~dir in
      out := (src, dst, bit) :: !out);
  List.rev !out

let fill_active g act sends =
  Network.Active.begin_round act;
  List.iter
    (fun (src, dst, bit) ->
      Network.Active.send act ~dir:(Topology.Graph.dir_id g ~src ~dst) bit)
    sends

let round ?(g = g4) net ~sends =
  let act = Network.active net in
  fill_active g act sends;
  Network.commit net act;
  delivered_of_active net act

let cc net = (Network.stats net).Network.cc
let corruptions net = (Network.stats net).Network.corruptions
let rounds net = (Network.stats net).Network.rounds
let noise_fraction net = (Network.stats net).Network.noise_fraction

let test_silent_delivery () =
  let net = Network.create g4 Adversary.Silent in
  let delivered = round net ~sends:[ (0, 1, true); (2, 1, false) ] in
  Alcotest.(check int) "two delivered" 2 (List.length delivered);
  Alcotest.(check bool) "0->1 true" true (List.mem (0, 1, true) delivered);
  Alcotest.(check bool) "2->1 false" true (List.mem (2, 1, false) delivered);
  Alcotest.(check int) "cc" 2 (cc net);
  Alcotest.(check int) "no corruptions" 0 (corruptions net);
  Alcotest.(check int) "round advanced" 1 (rounds net)

let test_empty_round () =
  let net = Network.create g4 Adversary.Silent in
  Alcotest.(check (list (triple int int bool))) "nothing" [] (round net ~sends:[]);
  let act = Network.active net in
  for _ = 1 to 5 do
    Network.Active.begin_round act;
    Network.commit net act
  done;
  Alcotest.(check int) "rounds" 6 (rounds net);
  Alcotest.(check int) "cc 0" 0 (cc net)

let dir g s d = Topology.Graph.dir_id g ~src:s ~dst:d

let test_substitution () =
  (* Addend 1 on a sent 0 yields 1 (flip). *)
  let adv = Adversary.single ~round:0 ~dir:(dir g4 0 1) ~addend:1 in
  let net = Network.create g4 adv in
  let delivered = round net ~sends:[ (0, 1, false) ] in
  Alcotest.(check (list (triple int int bool))) "flipped" [ (0, 1, true) ] delivered;
  Alcotest.(check int) "one corruption" 1 (corruptions net)

let test_deletion () =
  (* Addend 2 on a sent 0 (Z3: 0+2=2=∗) deletes it. *)
  let adv = Adversary.single ~round:0 ~dir:(dir g4 0 1) ~addend:2 in
  let net = Network.create g4 adv in
  let delivered = round net ~sends:[ (0, 1, false) ] in
  Alcotest.(check (list (triple int int bool))) "deleted" [] delivered;
  Alcotest.(check int) "cc counts the send" 1 (cc net);
  Alcotest.(check int) "one corruption" 1 (corruptions net)

let test_deletion_of_one () =
  (* Addend 1 on a sent 1 (Z3: 1+1=2=∗) deletes it. *)
  let adv = Adversary.single ~round:0 ~dir:(dir g4 0 1) ~addend:1 in
  let net = Network.create g4 adv in
  Alcotest.(check (list (triple int int bool))) "deleted" []
    (round net ~sends:[ (0, 1, true) ])

let test_insertion () =
  (* Addend 1 on a silent slot (Z3: 2+1=0) inserts a 0. *)
  let adv = Adversary.single ~round:0 ~dir:(dir g4 3 2) ~addend:1 in
  let net = Network.create g4 adv in
  let delivered = round net ~sends:[] in
  Alcotest.(check (list (triple int int bool))) "inserted zero" [ (3, 2, false) ] delivered;
  Alcotest.(check int) "cc counts no send" 0 (cc net);
  Alcotest.(check int) "one corruption" 1 (corruptions net)

let test_insertion_of_one () =
  let adv = Adversary.single ~round:0 ~dir:(dir g4 3 2) ~addend:2 in
  let net = Network.create g4 adv in
  Alcotest.(check (list (triple int int bool))) "inserted one" [ (3, 2, true) ]
    (round net ~sends:[])

let test_noise_only_at_scheduled_round () =
  let adv = Adversary.single ~round:5 ~dir:(dir g4 0 1) ~addend:1 in
  let net = Network.create g4 adv in
  for _ = 1 to 5 do
    let d = round net ~sends:[ (0, 1, true) ] in
    Alcotest.(check (list (triple int int bool))) "clean before round 5" [ (0, 1, true) ] d
  done;
  let d = round net ~sends:[ (0, 1, true) ] in
  Alcotest.(check (list (triple int int bool))) "deleted at round 5" [] d

let test_iid_rate () =
  let rng = Util.Rng.create 5 in
  let adv = Adversary.iid rng ~rate:0.1 in
  let net = Network.create g4 adv in
  let rounds = 2000 in
  for _ = 1 to rounds do
    ignore (round net ~sends:[ (0, 1, true); (1, 2, false) ])
  done;
  (* 8 directed links * 2000 rounds = 16000 slots; expect ~1600. *)
  let c = corruptions net in
  Alcotest.(check bool) (Printf.sprintf "corruption count plausible (%d)" c) true
    (c > 1200 && c < 2000)

let test_iid_oblivious_pure () =
  (* The oblivious pattern must be a pure function: two networks driven by
     the same adversary value see identical noise. *)
  let rng = Util.Rng.create 6 in
  let adv = Adversary.iid rng ~rate:0.3 in
  let run () =
    let net = Network.create g4 adv in
    let log = ref [] in
    for _ = 1 to 50 do
      log := round net ~sends:[ (0, 1, true) ] :: !log
    done;
    !log
  in
  Alcotest.(check bool) "replay identical" true (run () = run ())

(* Past 65,536 directed links, slot (r, 65_536 + d) must not draw the
   word of (r + 1, d). *)
let test_iid_wide_slots_distinct () =
  match Adversary.iid (Util.Rng.create 8) ~rate:0.5 with
  | Adversary.Oblivious f ->
      let differ = ref 0 in
      for r = 0 to 9_999 do
        if f ~round:r ~dir:65_543 <> f ~round:(r + 1) ~dir:7 then incr differ
      done;
      (* Independent slots at rate 0.5 disagree on 5/8 of the draws. *)
      Alcotest.(check bool) (Printf.sprintf "slots independent (%d/10000 differ)" !differ) true
        (!differ > 5_000)
  | _ -> Alcotest.fail "iid is oblivious"

(* The iid patterns draw exactly the bits of [Util.Rng.at] they always
   did (the key is the first word of the adversary's rng), and a draw
   allocates nothing: they run on every slot of every round. *)
let iid_reference ~seed ~rate ~round ~dir =
  let key = Util.Rng.int64 (Util.Rng.create seed) in
  let w = Util.Rng.at ~seed:key (Util.Rng.coord ~width:65536 round dir) in
  let u = Int64.to_float (Int64.shift_right_logical w 11) *. (1. /. 9007199254740992.) in
  (w, u < rate)

let test_iid_draws_match_at () =
  let rate = 0.3 in
  match
    ( Adversary.iid (Util.Rng.create 5) ~rate,
      Adversary.iid_fixing (Util.Rng.create 5) ~rate,
      Adversary.burst (Util.Rng.create 5) ~start_round:0 ~len:max_int ~dirs:[ 3; 70_000 ] )
  with
  | Adversary.Oblivious iid, Adversary.Oblivious_fixing fixing, Adversary.Oblivious burst ->
      for round = 0 to 199 do
        List.iter
          (fun dir ->
            let w, hit = iid_reference ~seed:5 ~rate ~round ~dir in
            Alcotest.(check int) "iid addend"
              (if hit then 1 + Int64.to_int (Int64.logand w 1L) else 0)
              (iid ~round ~dir);
            Alcotest.(check (option int)) "fixing output"
              (if hit then Some (Int64.to_int (Int64.rem (Int64.shift_right_logical w 2) 3L))
               else None)
              (fixing ~round ~dir);
            if dir = 3 || dir = 70_000 then
              Alcotest.(check int) "burst addend"
                (1 + Int64.to_int (Int64.logand w 1L))
                (burst ~round ~dir))
          [ 0; 3; 17; 65_535; 70_000 ]
      done
  | _ -> Alcotest.fail "iid and burst are oblivious, iid_fixing is fixing"

let test_iid_draws_allocation_free () =
  let per_call f =
    let calls = 20_000 in
    ignore (Sys.opaque_identity (f 0));
    let before = Gc.minor_words () in
    for i = 1 to calls do
      ignore (Sys.opaque_identity (f i))
    done;
    (Gc.minor_words () -. before) /. float_of_int calls
  in
  let check name f =
    let w = per_call f in
    Alcotest.(check bool) (Printf.sprintf "%s: %.4f words/draw" name w) true (w <= 0.01)
  in
  (match Adversary.iid (Util.Rng.create 6) ~rate:0.3 with
  | Adversary.Oblivious f -> check "iid" (fun i -> f ~round:(i / 64) ~dir:(i land 63))
  | _ -> Alcotest.fail "iid is oblivious");
  (match Adversary.burst (Util.Rng.create 6) ~start_round:0 ~len:max_int ~dirs:[ 0; 1 ] with
  | Adversary.Oblivious f -> check "burst" (fun i -> f ~round:i ~dir:(i land 1))
  | _ -> Alcotest.fail "burst is oblivious");
  (* A fixing hit is an [int option]; the misses must cost nothing. *)
  match Adversary.iid_fixing (Util.Rng.create 6) ~rate:0. with
  | Adversary.Oblivious_fixing f -> check "fixing misses" (fun i -> f ~round:i ~dir:0)
  | _ -> Alcotest.fail "iid_fixing is fixing"

let test_sampled_slots_count () =
  let rng = Util.Rng.create 7 in
  let adv = Adversary.sampled_slots rng ~count:25 ~rounds:100 ~dirs:8 in
  let net = Network.create g4 adv in
  for _ = 1 to 100 do
    ignore (round net ~sends:[])
  done;
  Alcotest.(check int) "exactly 25 corruptions" 25 (corruptions net)

let test_burst () =
  let rng = Util.Rng.create 8 in
  let d01 = dir g4 0 1 in
  let adv = Adversary.burst rng ~start_round:10 ~len:5 ~dirs:[ d01 ] in
  let net = Network.create g4 adv in
  for _ = 1 to 30 do
    ignore (round net ~sends:[])
  done;
  Alcotest.(check int) "5 corruptions" 5 (corruptions net)

let test_fixing_semantics () =
  (* Remark 1: the fixing adversary forces outputs; forcing the honest
     symbol costs nothing. *)
  let d01 = dir g4 0 1 in
  let mk forced = Netsim.Adversary.Oblivious_fixing
      (fun ~round ~dir -> if round = 0 && dir = d01 then Some forced else None)
  in
  (* Force 1 on a sent 0: substitution, one corruption. *)
  let net = Network.create g4 (mk 1) in
  Alcotest.(check (list (triple int int bool))) "forced to 1" [ (0, 1, true) ]
    (round net ~sends:[ (0, 1, false) ]);
  Alcotest.(check int) "one corruption" 1 (corruptions net);
  (* Force ∗ on a sent bit: deletion. *)
  let net = Network.create g4 (mk 2) in
  Alcotest.(check (list (triple int int bool))) "forced silent" []
    (round net ~sends:[ (0, 1, true) ]);
  Alcotest.(check int) "one corruption" 1 (corruptions net);
  (* Force 0 on a silent slot: insertion. *)
  let net = Network.create g4 (mk 0) in
  Alcotest.(check (list (triple int int bool))) "inserted 0" [ (0, 1, false) ]
    (round net ~sends:[]);
  Alcotest.(check int) "one corruption" 1 (corruptions net);
  (* Force the honest symbol: free, no corruption. *)
  let net = Network.create g4 (mk 1) in
  Alcotest.(check (list (triple int int bool))) "honest fix" [ (0, 1, true) ]
    (round net ~sends:[ (0, 1, true) ]);
  Alcotest.(check int) "no corruption charged" 0 (corruptions net)

let test_iid_fixing_cheaper_than_additive () =
  (* At equal rate the fixing adversary's corruption count is lower:
     about a third of its fixings match the honest symbol. *)
  let run adv =
    let net = Network.create g4 adv in
    for _ = 1 to 1500 do
      ignore (round net ~sends:[ (0, 1, true); (2, 3, false) ])
    done;
    corruptions net
  in
  let additive = run (Netsim.Adversary.iid (Util.Rng.create 91) ~rate:0.1) in
  let fixing = run (Netsim.Adversary.iid_fixing (Util.Rng.create 92) ~rate:0.1) in
  Alcotest.(check bool)
    (Printf.sprintf "fixing (%d) < additive (%d)" fixing additive)
    true
    (float_of_int fixing < 0.85 *. float_of_int additive);
  Alcotest.(check bool) "fixing still corrupts" true (fixing > 500)

let test_adaptive_budget_enforced () =
  (* A greedy adaptive adversary with budget cc/10 cannot corrupt more
     than a tenth of the communication. *)
  let adv =
    Adversary.Adaptive
      {
        budget = (fun cc -> cc / 10);
        strategy =
          (fun ctx ->
            List.map
              (fun (s, d, _) -> (Topology.Graph.dir_id ctx.Adversary.graph ~src:s ~dst:d, 1))
              ctx.Adversary.sends);
      }
  in
  let net = Network.create g4 adv in
  for _ = 1 to 200 do
    ignore (round net ~sends:[ (0, 1, true); (2, 3, false) ])
  done;
  Alcotest.(check int) "cc" 400 (cc net);
  Alcotest.(check bool)
    (Printf.sprintf "corruptions %d <= 40" (corruptions net))
    true
    (corruptions net <= 40);
  Alcotest.(check bool) "budget actually used" true (corruptions net >= 35);
  Alcotest.(check bool) "noise fraction <= 0.1" true (noise_fraction net <= 0.1)

let test_adaptive_sees_phase () =
  (* Strategy that only fires in the Simulation phase. *)
  let fired_in = ref [] in
  let adv =
    Adversary.Adaptive
      {
        budget = (fun _ -> max_int);
        strategy =
          (fun ctx ->
            if ctx.Adversary.sends <> [] then
              fired_in := ctx.Adversary.phase :: !fired_in;
            if ctx.Adversary.phase = Adversary.Simulation then
              (* Addend 1 on a sent 1 is a deletion (Z3: 1 + 1 = 2 = ∗). *)
              List.map
                (fun (s, d, _) -> (Topology.Graph.dir_id ctx.Adversary.graph ~src:s ~dst:d, 1))
                ctx.Adversary.sends
            else []);
      }
  in
  let net = Network.create g4 adv in
  Network.set_phase net ~iteration:0 ~phase:Adversary.Flag;
  let d1 = round net ~sends:[ (0, 1, true) ] in
  Network.set_phase net ~iteration:0 ~phase:Adversary.Simulation;
  let d2 = round net ~sends:[ (0, 1, true) ] in
  Alcotest.(check int) "flag phase untouched" 1 (List.length d1);
  Alcotest.(check int) "simulation phase deleted" 0 (List.length d2)

let prop_additive_semantics =
  (* For every sent symbol and addend, delivery follows the Z3 table:
     received = (sent + e) mod 3 under {0,1,∗} = {0,1,2}. *)
  QCheck.Test.make ~name:"additive channel semantics" ~count:200
    QCheck.(triple (int_bound 2) (int_bound 2) bool)
    (fun (sym, addend, _) ->
      let adv = Adversary.single ~round:0 ~dir:(dir g4 0 1) ~addend in
      let net = Network.create g4 adv in
      let sends = match sym with 0 -> [ (0, 1, false) ] | 1 -> [ (0, 1, true) ] | _ -> [] in
      let delivered = round net ~sends in
      let received =
        match List.find_opt (fun (s, d, _) -> s = 0 && d = 1) delivered with
        | Some (_, _, false) -> 0
        | Some (_, _, true) -> 1
        | None -> 2
      in
      received = (sym + addend) mod 3
      && corruptions net = (if addend = 0 then 0 else 1))

let test_compose () =
  let d01 = dir g4 0 1 in
  (* burst + iid: slots hit by both may cancel (1 + 2 = 0). *)
  let a = Adversary.single ~round:0 ~dir:d01 ~addend:1 in
  let b = Adversary.single ~round:0 ~dir:d01 ~addend:2 in
  let net = Network.create g4 (Adversary.compose a b) in
  Alcotest.(check (list (triple int int bool))) "addends cancel" [ (0, 1, true) ]
    (round net ~sends:[ (0, 1, true) ]);
  Alcotest.(check int) "cancellation is free" 0 (corruptions net);
  (* Identity. *)
  let net = Network.create g4 (Adversary.compose Adversary.Silent a) in
  Alcotest.(check (list (triple int int bool))) "silent identity (flip applies)" []
    (round net ~sends:[ (0, 1, true) ]);
  (* Genuinely combined: a burst and a single on different slots. *)
  let combined =
    Adversary.compose
      (Adversary.single ~round:0 ~dir:d01 ~addend:1)
      (Adversary.single ~round:1 ~dir:d01 ~addend:1)
  in
  let net = Network.create g4 combined in
  ignore (round net ~sends:[ (0, 1, false) ]);
  ignore (round net ~sends:[ (0, 1, false) ]);
  Alcotest.(check int) "both slots corrupted" 2 (corruptions net);
  (* Adaptive composition rejected. *)
  let adaptive = Adversary.Adaptive { budget = (fun _ -> 0); strategy = (fun _ -> []) } in
  Alcotest.check_raises "adaptive rejected"
    (Invalid_argument "Adversary.compose: only additive oblivious patterns compose") (fun () ->
      ignore (Adversary.compose a adaptive))

let test_noise_fraction () =
  let net = Network.create g4 Adversary.Silent in
  Alcotest.(check (float 0.001)) "zero cc" 0. (noise_fraction net)

let test_adaptive_overspend_clamped () =
  (* A strategy that asks for a corruption on every directed link every
     round overspends a constant budget immediately; the network must
     clamp the spend to exactly the budget, never above. *)
  let cap = 7 in
  let adv =
    Adversary.Adaptive
      {
        budget = (fun _ -> cap);
        strategy =
          (fun ctx -> List.init (2 * Topology.Graph.m ctx.Adversary.graph) (fun d -> (d, 1)));
      }
  in
  let net = Network.create g4 adv in
  for _ = 1 to 50 do
    ignore (round net ~sends:[ (0, 1, true); (2, 3, false) ])
  done;
  Alcotest.(check int) "spend clamped to exactly the budget" cap (corruptions net)

let test_compose_rejects_out_of_model () =
  (* Regression lock: compose is defined only on additive oblivious
     patterns.  Fixing and adaptive adversaries must keep raising, on
     either side. *)
  let a = Adversary.single ~round:0 ~dir:(dir g4 0 1) ~addend:1 in
  let fixing = Adversary.Oblivious_fixing (fun ~round:_ ~dir:_ -> None) in
  let adaptive = Adversary.Adaptive { budget = (fun _ -> 0); strategy = (fun _ -> []) } in
  let rejects name x y =
    Alcotest.check_raises name
      (Invalid_argument "Adversary.compose: only additive oblivious patterns compose") (fun () ->
        ignore (Adversary.compose x y))
  in
  rejects "fixing on the left" fixing a;
  rejects "fixing on the right" a fixing;
  rejects "adaptive on the left" adaptive a;
  rejects "adaptive on the right" a adaptive;
  rejects "both out of model" adaptive fixing

(* ------------------------------------------------------------------ *)
(* Transport: the sparse active-link buffer and its dense oracle.     *)
(* ------------------------------------------------------------------ *)

let test_active_basics () =
  let a = Network.Active.create g4 in
  Alcotest.(check int) "2m lanes" (2 * Topology.Graph.m g4) (Network.Active.length a);
  Alcotest.(check int) "fresh buffer empty" 0 (Network.Active.count a);
  let d01 = dir g4 0 1 and d21 = dir g4 2 1 and d10 = dir g4 1 0 in
  (* Write out of ascending order: iter must still visit ascending. *)
  Network.Active.send a ~dir:d21 false;
  Network.Active.send a ~dir:d01 true;
  Alcotest.(check (option bool)) "read back 1" (Some true) (Network.Active.get a ~dir:d01);
  Alcotest.(check (option bool)) "read back 0" (Some false) (Network.Active.get a ~dir:d21);
  Alcotest.(check (option bool)) "untouched silent" None (Network.Active.get a ~dir:d10);
  Alcotest.(check bool) "is_silent false" false (Network.Active.is_silent a ~dir:d01);
  Alcotest.(check bool) "is_silent true" true (Network.Active.is_silent a ~dir:d10);
  Alcotest.(check int) "count 2" 2 (Network.Active.count a);
  let seen = ref [] in
  Network.Active.iter a (fun ~dir bit -> seen := (dir, bit) :: !seen);
  Alcotest.(check bool) "iter ascending, non-silent only" true
    (List.rev !seen = List.sort compare [ (d01, true); (d21, false) ]);
  Network.Active.send a ~dir:d01 false;
  Alcotest.(check (option bool)) "overwrite" (Some false) (Network.Active.get a ~dir:d01);
  Alcotest.(check int) "overwrite keeps count" 2 (Network.Active.count a);
  Network.Active.begin_round a;
  Alcotest.(check int) "begin_round empties" 0 (Network.Active.count a);
  Alcotest.(check (option bool)) "begin_round silences" None (Network.Active.get a ~dir:d21)

let test_active_epoch_reuse () =
  (* One buffer across many rounds: each begin_round must fully
     invalidate the previous round, with no clearing pass to rely on. *)
  let a = Network.Active.create g4 in
  let two_m = Network.Active.length a in
  for r = 0 to 499 do
    Network.Active.begin_round a;
    let d = r mod two_m in
    let bit = r mod 2 = 0 in
    (* The lane for [d] holds stale bits from earlier epochs; reads must
       see only this round's write. *)
    Network.Active.send a ~dir:d bit;
    Alcotest.(check (option bool))
      (Printf.sprintf "round %d: own write visible" r)
      (Some bit) (Network.Active.get a ~dir:d);
    Alcotest.(check (option bool))
      (Printf.sprintf "round %d: previous round's dir silent" r)
      None
      (Network.Active.get a ~dir:((d + 1) mod two_m));
    Alcotest.(check int) (Printf.sprintf "round %d: count" r) 1 (Network.Active.count a)
  done

let test_active_epoch_wraparound () =
  (* The epoch stamp shares its word with the symbol lane and wraps at
     2^30 − 1: the wrap clears the lane space once and restarts at 1,
     so a stamp from the previous cycle can never validate a stale
     word.  [debug_set_epoch] jumps next to the edge. *)
  let max_epoch = (1 lsl 30) - 1 in
  let a = Network.Active.create g4 in
  Network.Active.begin_round a;
  Network.Active.send a ~dir:0 true;
  Network.Active.debug_set_epoch a (max_epoch - 1);
  Alcotest.(check (option bool)) "epoch jump invalidates" None (Network.Active.get a ~dir:0);
  Network.Active.begin_round a;
  (* epoch = max_epoch: the last round before the wrap behaves normally. *)
  Network.Active.send a ~dir:1 false;
  Alcotest.(check (option bool))
    "write at max epoch" (Some false) (Network.Active.get a ~dir:1);
  Alcotest.(check int) "count at max epoch" 1 (Network.Active.count a);
  Network.Active.begin_round a;
  (* Wrapped: epoch restarted at 1 over cleared words. *)
  Alcotest.(check int) "wrapped round starts empty" 0 (Network.Active.count a);
  Alcotest.(check (option bool))
    "max-epoch write does not survive the wrap" None (Network.Active.get a ~dir:1);
  Network.Active.send a ~dir:2 true;
  Alcotest.(check (option bool))
    "fresh-cycle write visible" (Some true) (Network.Active.get a ~dir:2);
  Network.Active.begin_round a;
  Alcotest.(check (option bool))
    "fresh-cycle rounds invalidate as usual" None (Network.Active.get a ~dir:2);
  (* Full round path across the wrap: deliveries through [commit] are
     unaffected. *)
  let net = Network.create g4 Adversary.Silent in
  let buf = Network.active net in
  Network.Active.begin_round buf;
  Network.Active.debug_set_epoch buf max_epoch;
  for r = 0 to 3 do
    Network.Active.begin_round buf;
    Network.Active.send buf ~dir:0 (r land 1 = 0);
    Network.commit net buf;
    Alcotest.(check (option bool))
      (Printf.sprintf "delivery across wrap, round %d" r)
      (Some (r land 1 = 0))
      (Network.Active.get buf ~dir:0)
  done

let test_sparse_empty_round () =
  (* Committing an empty round still runs the adversary: an insertion
     lands on a buffer nobody wrote to. *)
  let adv = Adversary.single ~round:1 ~dir:(dir g4 3 2) ~addend:1 in
  let net = Network.create g4 adv in
  let a = Network.active net in
  Network.Active.begin_round a;
  Network.commit net a;
  Alcotest.(check int) "round 0: nothing delivered" 0 (Network.Active.count a);
  Network.Active.begin_round a;
  Network.commit net a;
  Alcotest.(check (option bool)) "round 1: insertion delivered" (Some false)
    (Network.Active.get a ~dir:(dir g4 3 2));
  Alcotest.(check int) "cc stays 0" 0 (cc net);
  Alcotest.(check int) "one corruption" 1 (corruptions net);
  Alcotest.(check int) "two rounds" 2 (rounds net)

(* ---------- the dense reference round ----------

   An independent implementation of one network round (§2.1) over a
   dense int array of Z3 symbols (0, 1 are bits; 2 is silence), written
   the obvious way: collect every direction's adversary addend, apply
   them in ascending dir order, then the fault hooks.  It keeps its own
   books and trace events and calls nothing in [Network] beyond the
   public types, so the differential suite compares [Network.commit]
   against code that shares none of its round logic. *)
module Dense_ref = struct
  type t = {
    graph : Topology.Graph.t;
    adversary : Adversary.t;
    faults : Network.fault_hooks option;
    addends : int array;
    sink : Trace.Sink.t;
    ids : int * int * int; (* net.corrupt, net.injected, net.stalled *)
    mutable round_no : int;
    mutable cc : int;
    mutable corruptions : int;
    mutable stalled : int;
    mutable injected : int;
  }

  let create ?faults graph adversary sink =
    let id = Trace.Sink.declare in
    { graph; adversary; faults; addends = Array.make (2 * Topology.Graph.m graph) 0; sink;
      ids = (id "net.corrupt", id "net.injected", id "net.stalled");
      round_no = 0; cc = 0; corruptions = 0; stalled = 0; injected = 0 }

  (* (src, dst, bit) for every non-silent slot, in ascending dir order. *)
  let listing t slots =
    let edges = Topology.Graph.edges t.graph in
    List.filter_map
      (fun d ->
        let u, v = edges.(d / 2) in
        let lo = min u v and hi = max u v in
        let src, dst = if d land 1 = 0 then (lo, hi) else (hi, lo) in
        if slots.(d) = 2 then None else Some (src, dst, slots.(d) = 1))
      (List.init (Array.length slots) Fun.id)

  let adaptive_budget t budget =
    let scale =
      match t.faults with None -> 1. | Some h -> Float.max 1. (h.Network.budget_scale ~round:t.round_no)
    in
    let b = budget t.cc in
    let b = if scale = 1. then b else int_of_float (Float.min (scale *. float_of_int b) 4e18) in
    max 0 (b - t.corruptions)

  (* One round on the parties' [sends]; returns what was delivered. *)
  let round t sends =
    let two_m = Array.length t.addends and tr_corrupt, tr_injected, tr_stalled = t.ids in
    let slots = Array.make two_m 2 in
    List.iter
      (fun (src, dst, bit) ->
        slots.(Topology.Graph.dir_id t.graph ~src ~dst) <- (if bit then 1 else 0))
      sends;
    for d = 0 to two_m - 1 do
      if slots.(d) <> 2 then t.cc <- t.cc + 1;
      t.addends.(d) <- 0
    done;
    (* A fixing adversary is translated into the addend that forces its
       chosen output; forcing the honest symbol yields addend 0 and is
       free (Remark 1). *)
    (match t.adversary with
    | Adversary.Silent -> ()
    | Adversary.Oblivious pattern ->
        for d = 0 to two_m - 1 do
          t.addends.(d) <- pattern ~round:t.round_no ~dir:d
        done
    | Adversary.Oblivious_fixing pattern ->
        for d = 0 to two_m - 1 do
          match pattern ~round:t.round_no ~dir:d with
          | None -> ()
          | Some forced -> t.addends.(d) <- ((forced - slots.(d)) mod 3 + 3) mod 3
        done
    | Adversary.Adaptive { budget; strategy } ->
        let budget_left = adaptive_budget t budget in
        let ctx =
          Adversary.
            { round = t.round_no; iteration = -1; phase = Idle; graph = t.graph;
              cc_sent = t.cc; corruptions = t.corruptions; budget_left;
              sends = listing t slots }
        in
        let left = ref budget_left in
        List.iter
          (fun (d, a) ->
            if d >= 0 && d < two_m && (a = 1 || a = 2) && t.addends.(d) = 0 && !left > 0
            then begin
              t.addends.(d) <- a;
              decr left
            end)
          (strategy ctx));
    for d = 0 to two_m - 1 do
      let a = t.addends.(d) in
      if a <> 0 then begin
        t.corruptions <- t.corruptions + 1;
        slots.(d) <- (slots.(d) + a) mod 3;
        Trace.Sink.count t.sink ~id:tr_corrupt ~iter:t.round_no ~arg:d 1
      end
    done;
    (* Environment faults land after the adversary, and a stall wins
       over everything. *)
    (match t.faults with
    | None -> ()
    | Some h ->
        for d = 0 to two_m - 1 do
          let a = h.Network.extra_addend ~round:t.round_no ~dir:d in
          if a <> 0 then begin
            t.injected <- t.injected + 1;
            slots.(d) <- (slots.(d) + a) mod 3;
            Trace.Sink.count t.sink ~id:tr_injected ~iter:t.round_no ~arg:d 1
          end;
          if slots.(d) <> 2 && h.Network.stall ~round:t.round_no ~dir:d then begin
            t.stalled <- t.stalled + 1;
            slots.(d) <- 2;
            Trace.Sink.count t.sink ~id:tr_stalled ~iter:t.round_no ~arg:d 1
          end
        done);
    t.round_no <- t.round_no + 1;
    listing t slots

  let stats t =
    let noise_fraction =
      if t.cc = 0 then 0. else float_of_int t.corruptions /. float_of_int t.cc
    in
    Network.
      { rounds = t.round_no; cc = t.cc; corruptions = t.corruptions; noise_fraction;
        stalled = t.stalled; injected = t.injected }
end

(* Trace events modulo the wall-clock stamp: same names, order, rounds,
   links and values on both twins. *)
let norm_events sink =
  List.map
    (function
      | Trace.Sink.Span_begin { name; iter; seq; _ } -> `Span_begin (name, iter, seq)
      | Trace.Sink.Span_end { name; iter; seq; _ } -> `Span_end (name, iter, seq)
      | Trace.Sink.Count { name; iter; arg; value; seq; _ } -> `Count (name, iter, arg, value, seq)
      | Trace.Sink.Gauge { name; iter; value; seq; _ } -> `Gauge (name, iter, value, seq))
    (Trace.Sink.events sink)

(* Drive two twins on the same (pure) adversary value and identical
   traffic: the dense reference round above and [Network.commit] on a
   sparse buffer.  Deliveries, the books and the emitted trace events
   must agree round for round. *)
let check_differential ?hooks ~name g adv ~rounds ~sends_at =
  let sink_ref = Trace.Sink.create () in
  let oracle = Dense_ref.create ?faults:hooks g adv sink_ref in
  let net = Network.create g adv in
  let sink = Trace.Sink.create () in
  Network.set_trace net sink;
  Network.set_fault_hooks net hooks;
  let act = Network.active net in
  for r = 0 to rounds - 1 do
    let sends = sends_at r in
    let d_ref = Dense_ref.round oracle sends in
    fill_active g act sends;
    Network.commit net act;
    Alcotest.(check (list (triple int int bool)))
      (Printf.sprintf "%s: delivery, round %d" name r)
      d_ref (delivered_of_active net act)
  done;
  let s_ref = Dense_ref.stats oracle and s = Network.stats net in
  Alcotest.(check int) (name ^ " rounds") s_ref.Network.rounds s.Network.rounds;
  Alcotest.(check int) (name ^ " cc") s_ref.Network.cc s.Network.cc;
  Alcotest.(check int) (name ^ " corruptions") s_ref.Network.corruptions s.Network.corruptions;
  Alcotest.(check int) (name ^ " stalled") s_ref.Network.stalled s.Network.stalled;
  Alcotest.(check int) (name ^ " injected") s_ref.Network.injected s.Network.injected;
  Alcotest.(check (float 1e-9)) (name ^ " noise fraction") s_ref.Network.noise_fraction
    s.Network.noise_fraction;
  Alcotest.(check bool) (name ^ " identical trace event streams") true
    (norm_events sink_ref = norm_events sink)

let test_differential_substitution () =
  (* Addend 1 on a sent 0 flips it: pure substitution. *)
  let adv = Adversary.single ~round:3 ~dir:(dir g4 0 1) ~addend:1 in
  check_differential ~name:"substitution" g4 adv ~rounds:6 ~sends_at:(fun _ ->
      [ (0, 1, false); (2, 1, true) ])

let test_differential_deletion () =
  (* Addend 2 on a sent 0 silences it. *)
  let adv = Adversary.single ~round:2 ~dir:(dir g4 0 1) ~addend:2 in
  check_differential ~name:"deletion" g4 adv ~rounds:5 ~sends_at:(fun _ -> [ (0, 1, false) ])

let test_differential_insertion () =
  (* Addend on a silent slot conjures a symbol from nothing. *)
  let adv = Adversary.single ~round:1 ~dir:(dir g4 3 2) ~addend:1 in
  check_differential ~name:"insertion" g4 adv ~rounds:4 ~sends_at:(fun _ -> [])

(* QuickCheck-style: 20 random connected topologies under the
   adversary [adv seed], with pseudorandom traffic.  The send pattern is
   a pure function of (seed, round, dir) so both twins offer identical
   traffic. *)
let check_differential_random ~name adv =
  for seed = 0 to 19 do
    let g =
      Topology.Graph.random_connected (Util.Rng.create (100 + seed)) ~n:(3 + (seed mod 5))
        ~extra_edges:(seed mod 4)
    in
    let sends_at r =
      let sends = ref [] in
      Array.iteri
        (fun e (u, v) ->
          (* Decide each direction from a cheap hash of (seed, r, e). *)
          let h k = (((seed * 31) + r) * 31) + (e * 7) + k in
          if h 0 mod 3 <> 0 then sends := (u, v, h 1 mod 2 = 0) :: !sends;
          if h 2 mod 3 <> 1 then sends := (v, u, h 3 mod 2 = 0) :: !sends)
        (Topology.Graph.edges g);
      !sends
    in
    check_differential ~name:(Printf.sprintf "%s (seed %d)" name seed) g (adv seed)
      ~rounds:40 ~sends_at
  done

let test_differential_random () =
  (* iid additive noise mixes all three corruption kinds. *)
  check_differential_random ~name:"random topology" (fun seed ->
      Adversary.iid (Util.Rng.create (200 + seed)) ~rate:0.2)

let test_differential_fixing () =
  (* The fixing branch of [commit]: forced outputs become addends, and
     forcing the honest symbol costs nothing (Remark 1). *)
  check_differential_random ~name:"fixing" (fun seed ->
      Adversary.iid_fixing (Util.Rng.create (200 + seed)) ~rate:0.2)

let test_differential_fault_hooks () =
  (* Installed fault hooks (stalls + injected addends) must behave
     identically on both transports — including the stall-beats-everything
     ordering and the separate stalled/injected books. *)
  let hooks =
    Network.
      {
        stall = (fun ~round ~dir -> (round + dir) mod 7 = 0);
        extra_addend = (fun ~round ~dir -> if ((round * 3) + dir) mod 11 = 0 then 1 else 0);
        budget_scale = (fun ~round:_ -> 1.);
      }
  in
  let adv = Adversary.iid (Util.Rng.create 77) ~rate:0.15 in
  check_differential ~hooks ~name:"fault hooks" g4 adv ~rounds:60 ~sends_at:(fun r ->
      if r mod 3 = 0 then [] else [ (0, 1, r mod 2 = 0); (2, 3, r mod 5 = 0) ])

let test_differential_adaptive () =
  (* A (pure) greedy adaptive strategy sees the same ctx on both
     transports — same ascending send list, same budget — and its
     corruptions must land identically, budget clamp included. *)
  let adv =
    Adversary.Adaptive
      {
        budget = (fun cc -> cc / 8);
        strategy =
          (fun ctx ->
            List.map
              (fun (s, d, _) -> (Topology.Graph.dir_id ctx.Adversary.graph ~src:s ~dst:d, 1))
              ctx.Adversary.sends);
      }
  in
  check_differential ~name:"adaptive greedy" g4 adv ~rounds:80 ~sends_at:(fun r ->
      [ (0, 1, r mod 2 = 0); (2, 1, true); (3, 0, r mod 3 = 0) ]);
  (* Overspending request list in reverse dir order exercises the
     accept-in-strategy-order, apply-in-dir-order path. *)
  let adv_rev =
    Adversary.Adaptive
      {
        budget = (fun _ -> 3);
        strategy =
          (fun ctx ->
            List.rev
              (List.init (2 * Topology.Graph.m ctx.Adversary.graph) (fun d ->
                   (d, 1 + (d mod 2)))));
      }
  in
  check_differential ~name:"adaptive reversed overspend" g4 adv_rev ~rounds:20
    ~sends_at:(fun r -> [ (1, 2, r mod 2 = 0) ])

(* ---------- commit_block = rounds × commit ----------

   Two twins on the same traffic: one runs [rounds] single [commit]s of
   the block's sends (round r carries bit r of each direction's words),
   the other one [commit_block].  Delivered words, books and trace
   events must agree.  [adv ()] is called once per twin, so a stateful
   strategy gets a fresh, identical copy each. *)
let check_block ?hooks ~name g adv ~width ~fields ~rounds ~sym =
  let module B = Network.Block in
  let twin () =
    let net = Network.create g (adv ()) in
    let sink = Trace.Sink.create () in
    Network.set_trace net sink;
    Network.set_fault_hooks net hooks;
    Network.set_phase net ~iteration:3 ~phase:Adversary.Meeting_points;
    (net, sink)
  in
  let net_r, sink_r = twin () and net_b, sink_b = twin () in
  let two_m = 2 * Topology.Graph.m g in
  (* [sym dir r]: 0, 1, or 2 for a silent round (2 everywhere: a dead sender). *)
  let out = Network.Block.create g ~width ~fields in
  for dir = 0 to two_m - 1 do
    for r = 0 to (width * fields) - 1 do
      match sym dir r with 2 -> () | c -> B.send out ~dir ~round:r (c = 1)
    done
  done;
  let expected = Network.Block.create g ~width ~fields in
  let act = Network.active net_r in
  for r = 0 to rounds - 1 do
    Network.Active.begin_round act;
    for dir = 0 to two_m - 1 do
      match B.get out ~dir ~round:r with Some b -> Network.Active.send act ~dir b | None -> ()
    done;
    Network.commit net_r act;
    Network.Active.iter act (fun ~dir b -> B.send expected ~dir ~round:r b)
  done;
  (* Stale contents must not survive: rounds past [rounds] come out silent. *)
  let inw = Network.Block.create g ~width ~fields in
  for dir = 0 to two_m - 1 do
    for field = 0 to fields - 1 do
      B.set inw ~dir ~field (-1)
    done
  done;
  Network.commit_block net_b ~rounds ~out ~inw;
  for dir = 0 to two_m - 1 do
    for field = 0 to fields - 1 do
      let at what f = Printf.sprintf "%s: %s dir %d field %d" name what dir field |> fun m ->
        Alcotest.(check int) m (f expected ~dir ~field) (f inw ~dir ~field)
      in
      at "delivered ones" B.word;
      at "delivered symbols" B.heard
    done
  done;
  let s_r = Network.stats net_r and s_b = Network.stats net_b in
  Alcotest.(check bool) (name ^ ": stats") true (s_r = s_b);
  Alcotest.(check bool) (name ^ ": trace events") true (norm_events sink_r = norm_events sink_b)

(* The block shapes: τ = 30 (the largest hash width, 150 rounds, the
   meeting-points shape) and a short ragged one that ends mid-field. *)
let block_shapes = [ (30, 5, 150); (7, 3, 19) ]

let check_block_random ?hooks ~name adv =
  for seed = 0 to 19 do
    let g =
      Topology.Graph.random_connected (Util.Rng.create (100 + seed)) ~n:(3 + (seed mod 5))
        ~extra_edges:(seed mod 4)
    in
    (* Every third direction is a dead sender (silent: only insertions
       reach it); the rest speak, with an occasional silent round. *)
    let sym dir r =
      let h = (((seed * 131) + dir) * 31) + r in
      if dir mod 3 = 2 then 2 else if h mod 17 = 0 then 2 else (h / 3) land 1
    in
    (* A silent adversary without hooks takes the word-copy path; any
       other goes round by round. *)
    List.iter
      (fun (width, fields, rounds) ->
        check_block ?hooks
          ~name:(Printf.sprintf "%s (seed %d, width %d, %d rounds)" name seed width rounds)
          g (fun () -> adv seed g) ~width ~fields ~rounds ~sym)
      block_shapes
  done

let test_block_silent () = check_block_random ~name:"silent" (fun _ _ -> Adversary.Silent)

let test_block_iid () =
  check_block_random ~name:"iid" (fun seed _ ->
      Adversary.iid (Util.Rng.create (200 + seed)) ~rate:0.2)

let test_block_fixing () =
  check_block_random ~name:"fixing" (fun seed _ ->
      Adversary.iid_fixing (Util.Rng.create (200 + seed)) ~rate:0.2)

let test_block_burst () =
  check_block_random ~name:"burst" (fun seed g ->
      Adversary.burst (Util.Rng.create (300 + seed)) ~start_round:40 ~len:50
        ~dirs:(List.init (Topology.Graph.m g) (fun e -> 2 * e)))

let test_block_adaptive () =
  let phases = [ Adversary.Meeting_points ] in
  check_block_random ~name:"adaptive link target" (fun _ g ->
      Adversary.adaptive_link_target ~edge_dirs:[ 0; 1; (2 * Topology.Graph.m g) - 1 ]
        ~rate_denom:4 ~phases);
  check_block_random ~name:"adaptive phase attack" (fun seed _ ->
      Adversary.adaptive_phase_attack ~rate_denom:5 ~phases (Util.Rng.create (400 + seed)))

let test_block_fault_hooks () =
  (* Stalls, injected addends (insertions on dead senders included) and a
     scaled adaptive budget, on top of iid and adaptive noise. *)
  let hooks =
    Network.
      {
        stall = (fun ~round ~dir -> (round + dir) mod 7 = 0);
        extra_addend =
          (fun ~round ~dir -> if ((round * 3) + dir) mod 11 = 0 then 1 + (round land 1) else 0);
        budget_scale = (fun ~round -> if round mod 5 = 0 then 2. else 1.);
      }
  in
  check_block_random ~hooks ~name:"fault hooks, iid" (fun seed _ ->
      Adversary.iid (Util.Rng.create (500 + seed)) ~rate:0.1);
  check_block_random ~hooks ~name:"fault hooks, adaptive" (fun seed _ ->
      Adversary.adaptive_phase_attack ~rate_denom:6 ~phases:[ Adversary.Meeting_points ]
        (Util.Rng.create (600 + seed)))

let test_block_rejects () =
  let net = Network.create g4 Adversary.Silent in
  let b = Network.Block.create g4 ~width:4 ~fields:2 in
  let other ~width ~fields = Network.Block.create g4 ~width ~fields in
  Alcotest.check_raises "rounds past the words"
    (Invalid_argument "Network.commit_block: rounds out of range") (fun () ->
      Network.commit_block net ~rounds:9 ~out:b ~inw:(other ~width:4 ~fields:2));
  Alcotest.check_raises "shape mismatch"
    (Invalid_argument "Network.commit_block: block shape mismatch") (fun () ->
      Network.commit_block net ~rounds:4 ~out:b ~inw:(other ~width:8 ~fields:1));
  Alcotest.check_raises "width" (Invalid_argument "Network.Block: width out of range") (fun () ->
      ignore (Network.Block.create g4 ~width:Sys.int_size ~fields:1))

let test_stats_record () =
  (* The stats record is the one-read view of the network's books. *)
  let net = Network.create g4 Adversary.Silent in
  let d = round net ~sends:[ (0, 1, true) ] in
  Alcotest.(check (list (triple int int bool))) "delivers" [ (0, 1, true) ] d;
  let s = Network.stats net in
  Alcotest.(check int) "stats.rounds" 1 s.Network.rounds;
  Alcotest.(check int) "stats.cc" 1 s.Network.cc;
  Alcotest.(check int) "stats.corruptions" 0 s.Network.corruptions

let test_corruption_probe () =
  (* An attached sink sees one net.corrupt count per corrupted slot,
     tagged with the round and the directed link. *)
  let d01 = dir g4 0 1 in
  let adv = Adversary.single ~round:2 ~dir:d01 ~addend:1 in
  let net = Network.create g4 adv in
  let sink = Trace.Sink.create () in
  Network.set_trace net sink;
  for _ = 0 to 4 do
    ignore (round net ~sends:[ (0, 1, false) ])
  done;
  Alcotest.(check int) "one net.corrupt" 1 (Trace.Sink.counter_total sink "net.corrupt");
  (match Trace.Sink.events sink with
  | [ Trace.Sink.Count { name = "net.corrupt"; iter; arg; value; _ } ] ->
      Alcotest.(check int) "tagged with the round" 2 iter;
      Alcotest.(check int) "tagged with the dir" d01 arg;
      Alcotest.(check int) "unit count" 1 value
  | _ -> Alcotest.fail "expected exactly one Count event")

let () =
  Alcotest.run "netsim"
    [
      ( "delivery",
        [
          Alcotest.test_case "silent delivery" `Quick test_silent_delivery;
          Alcotest.test_case "empty round" `Quick test_empty_round;
        ] );
      ( "noise semantics",
        [
          Alcotest.test_case "substitution" `Quick test_substitution;
          Alcotest.test_case "deletion of 0" `Quick test_deletion;
          Alcotest.test_case "deletion of 1" `Quick test_deletion_of_one;
          Alcotest.test_case "insertion of 0" `Quick test_insertion;
          Alcotest.test_case "insertion of 1" `Quick test_insertion_of_one;
          Alcotest.test_case "timing" `Quick test_noise_only_at_scheduled_round;
        ] );
      ( "adversaries",
        [
          Alcotest.test_case "iid rate" `Quick test_iid_rate;
          Alcotest.test_case "iid pure/oblivious" `Quick test_iid_oblivious_pure;
          Alcotest.test_case "iid wide slots distinct" `Quick test_iid_wide_slots_distinct;
          Alcotest.test_case "iid draws match at" `Quick test_iid_draws_match_at;
          Alcotest.test_case "iid draws allocation-free" `Quick test_iid_draws_allocation_free;
          Alcotest.test_case "sampled slots count" `Quick test_sampled_slots_count;
          Alcotest.test_case "burst" `Quick test_burst;
          Alcotest.test_case "fixing semantics" `Quick test_fixing_semantics;
          Alcotest.test_case "iid fixing cheaper" `Quick test_iid_fixing_cheaper_than_additive;
          Alcotest.test_case "adaptive budget" `Quick test_adaptive_budget_enforced;
          Alcotest.test_case "adaptive overspend clamped" `Quick test_adaptive_overspend_clamped;
          Alcotest.test_case "adaptive phase view" `Quick test_adaptive_sees_phase;
          Alcotest.test_case "noise fraction" `Quick test_noise_fraction;
          QCheck_alcotest.to_alcotest prop_additive_semantics;
          Alcotest.test_case "compose" `Quick test_compose;
          Alcotest.test_case "compose rejects out-of-model" `Quick
            test_compose_rejects_out_of_model;
        ] );
      ( "transport",
        [
          Alcotest.test_case "active basics" `Quick test_active_basics;
          Alcotest.test_case "active epoch reuse" `Quick test_active_epoch_reuse;
          Alcotest.test_case "active epoch wraparound" `Quick test_active_epoch_wraparound;
          Alcotest.test_case "sparse empty round" `Quick test_sparse_empty_round;
          Alcotest.test_case "differential: substitution" `Quick test_differential_substitution;
          Alcotest.test_case "differential: deletion" `Quick test_differential_deletion;
          Alcotest.test_case "differential: insertion" `Quick test_differential_insertion;
          Alcotest.test_case "differential: random topologies" `Quick test_differential_random;
          Alcotest.test_case "differential: fixing" `Quick test_differential_fixing;
          Alcotest.test_case "differential: fault hooks" `Quick test_differential_fault_hooks;
          Alcotest.test_case "differential: adaptive" `Quick test_differential_adaptive;
          Alcotest.test_case "block: silent" `Quick test_block_silent;
          Alcotest.test_case "block: iid" `Quick test_block_iid;
          Alcotest.test_case "block: fixing" `Quick test_block_fixing;
          Alcotest.test_case "block: burst" `Quick test_block_burst;
          Alcotest.test_case "block: adaptive" `Quick test_block_adaptive;
          Alcotest.test_case "block: fault hooks" `Quick test_block_fault_hooks;
          Alcotest.test_case "block: rejects" `Quick test_block_rejects;
          Alcotest.test_case "stats record" `Quick test_stats_record;
          Alcotest.test_case "corruption probe" `Quick test_corruption_probe;
        ] );
    ]
