type stats = { mutable attempts : int; mutable hits : int; mutable corruptions_spent : int }

let fresh_stats () = { attempts = 0; hits = 0; corruptions_spent = 0 }

(* Per-simulation-phase working state of the hunter. *)
type phase_state = {
  slots : (int * int * bool) array; (* (roff, dir, is_pad) events of the chunk on the link *)
  observed : bool array; (* the honest sender spoke event i this phase *)
  cut : int; (* first attackable trailing-pad event index *)
  trigger_roff : int;
  base_len : int; (* transcript length (chunks) when the phase began *)
  mutable plan : (int * (int * int) list) list; (* roff -> (dir, addend) requests *)
  mutable planned : bool;
}

let trailing_pads slots depth =
  let n = Array.length slots in
  let rec first_pad i =
    if i > 0 && (fun (_, _, p) -> p) slots.(i - 1) then first_pad (i - 1) else i
  in
  let start = first_pad n in
  max start (n - depth)

(* The raw hunter machinery on one link: returns the spy hook and the
   bare strategy function, leaving budget wrapping (and therefore
   composition with other strategies under one shared budget) to the
   caller.  [stats] is caller-supplied so composed hunters over a link
   set can share one per-trial record; [depth] is checked by
   [validate]. *)
let hunter_strategy ~edge ~depth ~stats =
  let spy_ref : Scheme.spy option ref = ref None in
  let hook spy = spy_ref := Some spy in
  let prev_phase = ref Netsim.Adversary.Idle in
  let offset = ref (-2) in
  let state : phase_state option ref = ref None in
  let enter_phase spy =
    let view = spy.Scheme.edge_view edge in
    if not view.Scheme.in_sync then None
    else begin
      let chunk_index = Transcript.length view.Scheme.tr_lo + 1 in
      let slots =
        Protocol.Chunking.link_slots_full spy.Scheme.spy_chunking ~chunk_index ~edge
      in
      let n = Array.length slots in
      if n = 0 then None
      else begin
        let cut = trailing_pads slots depth in
        if cut >= n then None
        else
          let trigger_roff = (fun (r, _, _) -> r) slots.(cut) in
          Some
            {
              slots;
              observed = Array.make n false;
              cut;
              trigger_roff;
              base_len = Transcript.length view.Scheme.tr_lo;
              plan = [];
              planned = false;
            }
      end
    end
  in
  (* Search for a minimum-cost nonempty change set whose sensitivity masks
     XOR to zero: candidates are per-event choices keep/flip/delete. *)
  let search masks_flip masks_del =
    let d = Array.length masks_flip in
    let best = ref None in
    let total = int_of_float (3. ** float_of_int d) in
    for code = 1 to total - 1 do
      let x = ref 0 and cost = ref 0 and c = ref code in
      let choice = Array.make d 0 in
      for i = 0 to d - 1 do
        let a = !c mod 3 in
        c := !c / 3;
        choice.(i) <- a;
        if a = 1 then begin
          x := !x lxor masks_flip.(i);
          incr cost
        end
        else if a = 2 then begin
          x := !x lxor masks_del.(i);
          incr cost
        end
      done;
      if !x = 0 && !cost > 0 then
        match !best with
        | Some (bc, _) when bc <= !cost -> ()
        | _ -> best := Some (!cost, Array.copy choice)
    done;
    !best
  in
  let try_attack spy st budget_left =
    stats.attempts <- stats.attempts + 1;
    let view = spy.Scheme.edge_view edge in
    (* The link must not have changed under us (e.g. a rewind mid-phase
       cannot happen, but be defensive). *)
    if Transcript.length view.Scheme.tr_lo <> st.base_len then ()
    else begin
      let n = Array.length st.slots in
      let all_observed = ref true in
      for i = 0 to st.cut - 1 do
        if not st.observed.(i) then all_observed := false
      done;
      if !all_observed then begin
        (* Where the chunk's n symbols will sit once pushed; the hash
           sensitivity depends only on the positions, not the bits. *)
        let sym_bits_start event =
          Transcript.symbol_offset view.Scheme.tr_lo ~chunk:(st.base_len + 1) ~event
        in
        let total_bits = sym_bits_start n in
        let iter_next = spy.Scheme.current_iteration () + 1 in
        let d = n - st.cut in
        let sens pos =
          Seeds.prefix_bit_sensitivity view.Scheme.seeds ~iter:iter_next ~field:0 ~total_bits ~pos
        in
        let masks_flip = Array.init d (fun j -> sens (sym_bits_start (st.cut + j))) in
        let masks_del = Array.init d (fun j -> sens (sym_bits_start (st.cut + j) + 1)) in
        match search masks_flip masks_del with
        | Some (cost, choice) when cost <= budget_left ->
            stats.hits <- stats.hits + 1;
            stats.corruptions_spent <- stats.corruptions_spent + cost;
            let plan = Hashtbl.create 4 in
            Array.iteri
              (fun j a ->
                if a <> 0 then begin
                  let roff, dir, _ = st.slots.(st.cut + j) in
                  let addend = if a = 1 then 1 else 2 in
                  let existing = Option.value ~default:[] (Hashtbl.find_opt plan roff) in
                  Hashtbl.replace plan roff ((dir, addend) :: existing)
                end)
              choice;
            st.plan <- Hashtbl.fold (fun roff reqs acc -> (roff, reqs) :: acc) plan []
        | Some _ | None -> ()
      end
    end
  in
  let strategy ctx =
    let open Netsim.Adversary in
    let requests = ref [] in
    (match (!spy_ref, ctx.phase) with
    | Some spy, Simulation ->
        if !prev_phase <> Simulation then begin
          offset := -1;
          state := enter_phase spy
        end
        else incr offset;
        (match !state with
        | Some st when !offset >= 0 ->
            (* Record this round's honest traffic on the target link. *)
            Array.iteri
              (fun i (roff, dir, _) ->
                if roff = !offset then
                  List.iter (fun (d, _) -> if d = dir then st.observed.(i) <- true) ctx.sends)
              st.slots;
            if (not st.planned) && !offset = st.trigger_roff then begin
              st.planned <- true;
              try_attack spy st ctx.budget_left
            end;
            List.iter (fun (roff, reqs) -> if roff = !offset then requests := reqs @ !requests) st.plan
        | Some _ | None -> ())
    | _, _ -> if ctx.phase <> Simulation then state := None);
    prev_phase := ctx.phase;
    !requests
  in
  (hook, strategy)

(* Directed-link admission predicate for a target edge set; [[]] means
   every link (the historical behaviour of the broad attacks). *)
let dir_filter graph edges =
  match edges with
  | [] -> fun _ -> true
  | es ->
      let set = Hashtbl.create 8 in
      let pairs = Topology.Graph.edges graph in
      List.iter
        (fun e ->
          let u, v = pairs.(e) in
          Hashtbl.replace set (Topology.Graph.dir_id graph ~src:u ~dst:v) ();
          Hashtbl.replace set (Topology.Graph.dir_id graph ~src:v ~dst:u) ())
        es;
      fun d -> Hashtbl.mem set d

let flag_forger_strategy ~admit ctx =
  let open Netsim.Adversary in
  if ctx.phase <> Flag then []
  else begin
    (* Flipping a flag bit is addend 1 on 0 (stop→continue is the
       damaging direction) and addend 2 on 1 (continue→stop). *)
    let left = ref ctx.budget_left and requests = ref [] in
    List.iter
      (fun (d, bit) ->
        if !left > 0 && admit d then begin
          requests := (d, if bit then 2 else 1) :: !requests;
          decr left
        end)
      ctx.sends;
    !requests
  end

let rewind_spoofer_strategy ~admit ctx =
  let open Netsim.Adversary in
  if ctx.phase <> Rewind then []
  else begin
    let busy = Hashtbl.create 8 in
    List.iter (fun (d, _) -> Hashtbl.replace busy d ()) ctx.sends;
    let left = ref ctx.budget_left and requests = ref [] in
    let two_m = 2 * Topology.Graph.m ctx.graph in
    for d = 0 to two_m - 1 do
      (* Insert a spoofed rewind on every silent directed link
         (addend 1 on silence inserts a 0-bit — any bit received
         in the rewind phase is a rewind request). *)
      if admit d && (not (Hashtbl.mem busy d)) && !left > 0 then begin
        requests := (d, 1) :: !requests;
        decr left
      end
    done;
    !requests
  end

let mp_blind_strategy ~admit ctx =
  let open Netsim.Adversary in
  if ctx.phase <> Meeting_points then []
  else begin
    let left = ref ctx.budget_left and requests = ref [] in
    List.iter
      (fun (d, _) ->
        if !left > 0 && admit d then begin
          requests := (d, 1) :: !requests;
          decr left
        end)
      ctx.sends;
    !requests
  end

(* A budgeted burst: for [len] rounds from [start] hit every admitted
   directed link each round — a sent bit is substituted/silenced, a
   silent slot becomes an insertion.  Unlike {!Netsim.Adversary.burst}
   this is an adaptive strategy paying per corruption, so it is
   budget-comparable with the other families. *)
let burst_strategy ~graph ~admit ~start ~len ctx =
  let open Netsim.Adversary in
  if len <= 0 || ctx.round < start || ctx.round >= start + len then []
  else begin
    let left = ref ctx.budget_left and requests = ref [] in
    let two_m = 2 * Topology.Graph.m graph in
    for d = 0 to two_m - 1 do
      if admit d && !left > 0 then begin
        requests := (d, 1) :: !requests;
        decr left
      end
    done;
    !requests
  end

let wrap ~rate_denom strategy =
  Netsim.Adversary.Adaptive { budget = (fun cc -> cc / rate_denom); strategy }

(* ---------- the uniform candidate constructor ---------- *)

type family = Hunter | Mp_blind | Flag_forge | Rewind_spoof | Burst

let all_families = [ Hunter; Mp_blind; Flag_forge; Rewind_spoof; Burst ]

let family_to_string = function
  | Hunter -> "hunter"
  | Mp_blind -> "mp_blind"
  | Flag_forge -> "flag_forge"
  | Rewind_spoof -> "rewind_spoof"
  | Burst -> "burst"

let family_of_string = function
  | "hunter" -> Some Hunter
  | "mp_blind" -> Some Mp_blind
  | "flag_forge" -> Some Flag_forge
  | "rewind_spoof" -> Some Rewind_spoof
  | "burst" -> Some Burst
  | _ -> None

type candidate = {
  family : family;
  partner : family option;
  edges : int list;
  window : (int * int) option;
  burst_start : int;
  burst_len : int;
  rate_denom : int;
  depth : int;
}

let default_candidate =
  {
    family = Mp_blind;
    partner = None;
    edges = [];
    window = None;
    burst_start = 0;
    burst_len = 0;
    rate_denom = 1000;
    depth = 4;
  }

let candidate_to_string c =
  let fam =
    family_to_string c.family
    ^ match c.partner with None -> "" | Some p -> "+" ^ family_to_string p
  in
  let edges =
    match c.edges with
    | [] -> "all"
    | es -> String.concat "," (List.map string_of_int es)
  in
  let win =
    match c.window with None -> "" | Some (lo, hi) -> Printf.sprintf " w%d-%d" lo hi
  in
  let burst =
    if c.family = Burst || c.partner = Some Burst then
      Printf.sprintf " b%d+%d" c.burst_start c.burst_len
    else ""
  in
  let depth =
    if c.family = Hunter || c.partner = Some Hunter then Printf.sprintf " d%d" c.depth else ""
  in
  Printf.sprintf "%s@e%s rd%d%s%s%s" fam edges c.rate_denom win burst depth

let validate ~graph c =
  let m = Topology.Graph.m graph in
  let fail fmt = Printf.ksprintf invalid_arg ("Attacks.instantiate: " ^^ fmt) in
  if c.rate_denom < 1 then fail "rate_denom must be >= 1 (got %d)" c.rate_denom;
  if c.depth < 1 || c.depth > 8 then fail "depth in 1..8 (got %d)" c.depth;
  List.iter (fun e -> if e < 0 || e >= m then fail "edge %d out of range (m = %d)" e m) c.edges;
  (match c.window with
  | Some (lo, hi) when lo < 0 || hi <= lo -> fail "window [%d,%d) is empty or negative" lo hi
  | _ -> ());
  if c.burst_start < 0 || c.burst_len < 0 then
    fail "burst shape must be non-negative (start %d, len %d)" c.burst_start c.burst_len

type instance = {
  adversary : Netsim.Adversary.t;
  spy_hook : (Scheme.spy -> unit) option;
  stats : stats;
}

let instantiate ~graph c =
  validate ~graph c;
  (* One stats record per instance: the multicore contract is that an
     instance is constructed inside the trial thunk, so the record is
     only ever mutated by the domain running that trial. *)
  let stats = fresh_stats () in
  let hooks = ref [] in
  let strategy_of = function
    | Hunter ->
        let edges =
          match c.edges with
          | [] -> List.init (Topology.Graph.m graph) Fun.id
          | es -> es
        in
        let strategies =
          List.map
            (fun edge ->
              let hook, s = hunter_strategy ~edge ~depth:c.depth ~stats in
              hooks := hook :: !hooks;
              s)
            edges
        in
        fun ctx -> List.concat_map (fun s -> s ctx) strategies
    | Mp_blind -> mp_blind_strategy ~admit:(dir_filter graph c.edges)
    | Flag_forge -> flag_forger_strategy ~admit:(dir_filter graph c.edges)
    | Rewind_spoof -> rewind_spoofer_strategy ~admit:(dir_filter graph c.edges)
    | Burst ->
        burst_strategy ~graph
          ~admit:(dir_filter graph c.edges)
          ~start:c.burst_start ~len:c.burst_len
  in
  let primary = strategy_of c.family in
  let secondary = match c.partner with None -> (fun _ -> []) | Some f -> strategy_of f in
  let in_window =
    match c.window with
    | None -> fun _ -> true
    | Some (lo, hi) -> fun it -> it >= lo && it < hi
  in
  let strategy ctx =
    (* Both strategies are stepped every round — the hunter's state
       machine tracks phase transitions — but their requests are only
       released inside the candidate's iteration window. *)
    let a = primary ctx in
    let b = secondary ctx in
    if in_window ctx.Netsim.Adversary.iteration then a @ b else []
  in
  let spy_hook =
    match !hooks with
    | [] -> None
    | hs -> Some (fun spy -> List.iter (fun h -> h spy) hs)
  in
  { adversary = wrap ~rate_denom:c.rate_denom strategy; spy_hook; stats }
