(* Timeline -> diagnosis.  See postmortem.mli for the contract. *)

type cause = Adversary_noise | Injected_fault | Hash_collision

type blame = {
  cause : cause;
  event : string;
  iteration : int;
  phase : string;
  party : int;
  link : int;
  round : int;
}

type severity = Info | Warning | Violation

type finding = { severity : severity; code : string; iteration : int; message : string }

type t = {
  iterations : int;
  stalls : int;
  unexplained_stalls : int;
  first_divergence : (int * string) option;
  blame : blame option;
  blame_counts : (string * int) list;
  findings : finding list;
}

let starts_with ~prefix s =
  String.length s >= String.length prefix && String.sub s 0 (String.length prefix) = prefix

(* Blame-class events: anything that books deviation from the nominal
   noiseless execution. *)
let classify name =
  if starts_with ~prefix:"fault." name || name = "net.injected" || name = "net.stalled" then
    Some Injected_fault
  else if name = "net.corrupt" then Some Adversary_noise
  else if name = "mp.hash_collision" then Some Hash_collision
  else None

(* The blame a booked count carries: [arg] is the party of a fault
   event and the directed link of a network event, whose [iter] is the
   network round. *)
let blame_of ~iteration ~phase ~name ~iter ~arg cause =
  let is_net = starts_with ~prefix:"net." name in
  let is_party = starts_with ~prefix:"fault." name in
  {
    cause;
    event = name;
    iteration;
    phase;
    party = (if is_party then arg else -1);
    link = (if is_net then arg else -1);
    round = (if is_net then iter else -1);
  }

(* Counters whose presence at (or one iteration before) a stall makes
   the stall attributable: booked deviations, plus the visible recovery
   work a past deviation forces (meeting-point activity, rewinds, idle
   or flag-divergent parties). *)
let explains_stall name =
  classify name <> None
  || List.mem name
       [ "mp.enter"; "mp.exit"; "mp.truncate"; "rewind.requests"; "flag.missing"; "sim.idle_parties" ]

let iteration_explained (it : Timeline.iteration) =
  List.exists (fun (name, v) -> v > 0 && explains_stall name) it.Timeline.counts

let analyze (tl : Timeline.t) =
  let iterations = List.length tl.Timeline.iterations in
  (* --- blame: first blame-class event in emission order --- *)
  let first_blame_in ~iteration events =
    List.find_map
      (fun (a : Timeline.attributed) ->
        match a.Timeline.ev with
        | Trace.Sink.Count { name; iter; arg; value; _ } when value > 0 ->
            Option.map (blame_of ~iteration ~phase:a.Timeline.phase ~name ~iter ~arg) (classify name)
        | _ -> None)
      events
  in
  let blame =
    match first_blame_in ~iteration:(-1) tl.Timeline.setup with
    | Some b -> Some b
    | None ->
        List.find_map
          (fun (it : Timeline.iteration) ->
            first_blame_in ~iteration:it.Timeline.index it.Timeline.events)
          tl.Timeline.iterations
  in
  let blame_counts =
    List.filter (fun (name, _) -> classify name <> None) tl.Timeline.counter_totals
  in
  (* --- first divergence --- *)
  let first_divergence =
    List.find_map
      (fun (it : Timeline.iteration) ->
        let blame_ev =
          List.find_opt (fun (name, v) -> v > 0 && classify name <> None) it.Timeline.counts
        in
        match blame_ev with
        | Some (name, _) -> Some (it.Timeline.index, "first " ^ name)
        | None ->
            if (match it.Timeline.b_star with Some b -> b > 0. | None -> false) then
              Some (it.Timeline.index, "B* > 0")
            else if Timeline.count it "mp.truncate" > 0 then
              Some (it.Timeline.index, "meeting-point truncation")
            else None)
      tl.Timeline.iterations
  in
  (* --- potential-invariant check --- *)
  let findings = ref [] in
  let add severity code iteration message = findings := { severity; code; iteration; message } :: !findings in
  let stalls = ref 0 and unexplained = ref 0 in
  let rec walk prev = function
    | [] -> ()
    | (it : Timeline.iteration) :: rest ->
        if it.Timeline.stalled then begin
          incr stalls;
          let explained =
            iteration_explained it
            || (match prev with Some p -> iteration_explained p | None -> false)
          in
          if not explained then begin
            incr unexplained;
            add Violation "phi.stall.unexplained" it.Timeline.index
              (Printf.sprintf
                 "iteration %d: potential stalled with no booked noise, fault, collision or \
                  recovery activity in iterations %d-%d"
                 it.Timeline.index
                 (match prev with Some p -> p.Timeline.index | None -> it.Timeline.index)
                 it.Timeline.index)
          end
        end;
        walk (Some it) rest
  in
  walk None tl.Timeline.iterations;
  (* --- trace integrity --- *)
  if not tl.Timeline.truncated then
    List.iter
      (fun (name, total) ->
        let summed = Option.value ~default:0 (List.assoc_opt name tl.Timeline.counter_sums) in
        if summed <> total then
          add Violation "trace.counter.mismatch" (-1)
            (Printf.sprintf "counter %s: events sum to %d but drop-proof total is %d" name summed
               total))
      tl.Timeline.counter_totals;
  List.iter (fun e -> add Warning "trace.malformed" (-1) e) tl.Timeline.errors;
  if tl.Timeline.truncated then
    add Info "trace.truncated" (-1)
      (Printf.sprintf
         "ring dropped the first %d event(s); per-iteration analysis covers the retained tail \
          only"
         tl.Timeline.first_seq);
  let rank f = match f.severity with Violation -> 0 | Warning -> 1 | Info -> 2 in
  let findings =
    List.stable_sort (fun a b -> compare (rank a) (rank b)) (List.rev !findings)
  in
  {
    iterations;
    stalls = !stalls;
    unexplained_stalls = !unexplained;
    first_divergence;
    blame;
    blame_counts;
    findings;
  }

let clean t = t.blame = None && List.for_all (fun f -> f.severity = Info) t.findings
let violations t = List.filter (fun f -> f.severity = Violation) t.findings

let cause_to_string = function
  | Adversary_noise -> "adversary noise"
  | Injected_fault -> "injected fault"
  | Hash_collision -> "hash collision"

let pp_blame fmt b =
  Format.fprintf fmt "%s (%s) at iteration %d in %s" b.event (cause_to_string b.cause) b.iteration
    (if b.phase = "" then "setup" else b.phase);
  if b.party >= 0 then Format.fprintf fmt ", party %d" b.party;
  if b.link >= 0 then Format.fprintf fmt ", link %d" b.link;
  if b.round >= 0 then Format.fprintf fmt ", round %d" b.round

let pp fmt t =
  Format.fprintf fmt "postmortem: %d iteration(s), %d stall(s) (%d unexplained)@." t.iterations
    t.stalls t.unexplained_stalls;
  (match t.first_divergence with
  | Some (it, why) -> Format.fprintf fmt "  first divergence: iteration %d (%s)@." it why
  | None -> Format.fprintf fmt "  first divergence: none (links never disagreed)@.");
  (match t.blame with
  | Some b -> Format.fprintf fmt "  blame: %a@." pp_blame b
  | None -> Format.fprintf fmt "  blame: none (no noise, faults or collisions booked)@.");
  if t.blame_counts <> [] then begin
    Format.fprintf fmt "  booked deviations:";
    List.iter (fun (n, v) -> Format.fprintf fmt " %s=%d" n v) t.blame_counts;
    Format.fprintf fmt "@."
  end;
  if t.findings = [] then Format.fprintf fmt "  findings: none@."
  else
    List.iter
      (fun f ->
        Format.fprintf fmt "  [%s] %s: %s@."
          (match f.severity with Violation -> "VIOLATION" | Warning -> "warning" | Info -> "info")
          f.code f.message)
      t.findings
