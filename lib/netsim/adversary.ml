type phase = Exchange | Meeting_points | Flag | Simulation | Rewind | Idle

type context = {
  round : int;
  iteration : int;
  phase : phase;
  graph : Topology.Graph.t;
  cc_sent : int;
  corruptions : int;
  budget_left : int;
  sends : (int * bool) list;
}

type t =
  | Silent
  | Oblivious of (round:int -> dir:int -> int)
  | Oblivious_fixing of (round:int -> dir:int -> int option)
  | Adaptive of { budget : int -> int; strategy : context -> (int * int) list }

(* Each slot draws one word [w = Util.Rng.at ~seed:key (coord round
   dir)]: a pure function of the slot.  A slot is hit when the top 53
   bits of [w], as a fraction of 2^53, fall below the rate; only a hit
   reads the other bits it needs (bit 0, or [w lsr 2] mod 3), so the
   common miss costs one draw.  [Util.Rng.at_bits] reads the bits
   without boxing. *)
let[@inline] slot ~round ~dir = Util.Rng.coord ~width:65536 round dir

let[@inline] hit ~key i ~rate =
  float_of_int (Util.Rng.at_bits ~seed:key i ~lo:11 ~width:53) *. (1. /. 9007199254740992.)
  < rate

let iid rng ~rate =
  let key = Util.Rng.int64 rng in
  Oblivious
    (fun ~round ~dir ->
      let i = slot ~round ~dir in
      if hit ~key i ~rate then 1 + Util.Rng.at_bits ~seed:key i ~lo:0 ~width:1 else 0)

let iid_fixing rng ~rate =
  let key = Util.Rng.int64 rng in
  Oblivious_fixing
    (fun ~round ~dir ->
      let i = slot ~round ~dir in
      if hit ~key i ~rate then Some (Util.Rng.at_bits ~seed:key i ~lo:2 ~width:62 mod 3) else None)

let burst rng ~start_round ~len ~dirs =
  let dirs_set = Hashtbl.create (List.length dirs) in
  List.iter (fun d -> Hashtbl.replace dirs_set d ()) dirs;
  let key = Util.Rng.int64 rng in
  Oblivious
    (fun ~round ~dir ->
      if round >= start_round && round < start_round + len && Hashtbl.mem dirs_set dir then
        1 + Util.Rng.at_bits ~seed:key (slot ~round ~dir) ~lo:0 ~width:1
      else 0)

let single ~round ~dir ~addend =
  Oblivious (fun ~round:r ~dir:d -> if r = round && d = dir then addend else 0)

let adaptive_link_target ~edge_dirs ~rate_denom ~phases =
  let dirs = Hashtbl.create (List.length edge_dirs) in
  List.iter (fun d -> Hashtbl.replace dirs d ()) edge_dirs;
  Adaptive
    {
      budget = (fun cc -> cc / rate_denom);
      strategy =
        (fun ctx ->
          if not (List.mem ctx.phase phases) then []
          else begin
            let requests = ref [] and left = ref ctx.budget_left in
            List.iter
              (fun (d, _) ->
                if Hashtbl.mem dirs d && !left > 0 then begin
                  requests := (d, 1) :: !requests;
                  decr left
                end)
              ctx.sends;
            !requests
          end);
    }

let adaptive_phase_attack ~rate_denom ~phases rng =
  Adaptive
    {
      budget = (fun cc -> cc / rate_denom);
      strategy =
        (fun ctx ->
          if not (List.mem ctx.phase phases) then []
          else begin
            let requests = ref [] and left = ref ctx.budget_left in
            List.iter
              (fun (d, _) ->
                if !left > 0 && Util.Rng.int rng 2 = 0 then begin
                  requests := (d, 1 + Util.Rng.int rng 2) :: !requests;
                  decr left
                end)
              ctx.sends;
            !requests
          end);
    }

let compose a b =
  match (a, b) with
  | Silent, x | x, Silent -> x
  | Oblivious f, Oblivious g ->
      Oblivious (fun ~round ~dir -> (f ~round ~dir + g ~round ~dir) mod 3)
  | (Oblivious_fixing _ | Adaptive _), _ | _, (Oblivious_fixing _ | Adaptive _) ->
      invalid_arg "Adversary.compose: only additive oblivious patterns compose"
