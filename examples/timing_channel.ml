(* Hoza's observation (§1, "The communication model"): when parties may
   stay silent, the *pattern* of communication carries information.  A
   protocol that encodes bits purely in transmission timing is perfectly
   resilient to substitution noise — flipping a bit's value changes
   nothing, only *when* it was sent matters — which is exactly why a
   model that lets parties stay silent must grant the adversary
   insertions and deletions, as the paper's does.

   This example builds that channel directly on the network simulator:
   the sender transmits in round 2j+b to encode bit b.  We then attack
   it three ways.

   Run with:  dune exec examples/timing_channel.exe *)

let graph = Topology.Graph.line 2
let dir01 = Topology.Graph.dir_id graph ~src:0 ~dst:1

let payload = [ true; false; true; true; false; false; true; false ]

(* Send each bit b as a transmission in the first (b = 1) or second
   (b = 0) round of its two-round slot; decode by timing. *)
let run_channel adversary =
  (* Drive send and receive together: we interleave by re-simulating the
     schedule with the receiver watching deliveries — straight on the
     network's round buffer. *)
  let net = Netsim.Network.create graph adversary in
  let act = Netsim.Network.active net in
  let half b =
    Netsim.Network.Active.begin_round act;
    if b then Netsim.Network.Active.send act ~dir:dir01 true;
    Netsim.Network.commit net act;
    not (Netsim.Network.Active.is_silent act ~dir:dir01)
  in
  let received = ref [] in
  List.iter
    (fun b ->
      let got_first = half b in
      let got_second = half (not b) in
      (* Timing decode: symbol in the first round = 1, second = 0,
         neither/both = garbage (call it 0). *)
      received := (got_first && not got_second) :: !received)
    payload;
  (List.rev !received, (Netsim.Network.stats net).Netsim.Network.corruptions)

let pp_bits bits = String.concat "" (List.map (fun b -> if b then "1" else "0") bits)

(* A substitution-only adversary: flips the value of every transmitted
   bit but never silences or conjures one. *)
let substitution_everything =
  Netsim.Adversary.Adaptive
    {
      budget = (fun _ -> max_int);
      strategy =
        (fun ctx ->
          List.map
            (fun (dir, bit) ->
              (* value flip: 0 -> 1 is addend 1; 1 -> 0 is addend 2. *)
              (dir, if bit then 2 else 1))
            ctx.Netsim.Adversary.sends);
    }

let () =
  Format.printf "Timing channel: 8 bits encoded purely in *when* symbols are sent@.";
  Format.printf "  payload                       : %s@.@." (pp_bits payload);
  let clean, _ = run_channel Netsim.Adversary.Silent in
  Format.printf "  clean channel                 : %s (%s)@." (pp_bits clean)
    (if clean = payload then "ok" else "corrupted");
  let subbed, subs = run_channel substitution_everything in
  Format.printf "  EVERY bit substituted (%2d)    : %s (%s!)@." subs (pp_bits subbed)
    (if subbed = payload then "still ok" else "corrupted");
  (* One deletion: silence the transmission of the very first bit. *)
  let one_deletion = Netsim.Adversary.single ~round:0 ~dir:dir01 ~addend:1 in
  let deleted, _ = run_channel one_deletion in
  Format.printf "  a SINGLE deletion             : %s (%s)@.@." (pp_bits deleted)
    (if deleted = payload then "ok" else "corrupted");
  Format.printf "Substitutions are powerless against timing; one deletion kills it.@.";
  Format.printf "This is why the relaxed model *must* charge the adversary for@.";
  Format.printf "insertions and deletions — the noise the paper's schemes survive.@.";
  if not (clean = payload && subbed = payload && deleted <> payload) then exit 1
