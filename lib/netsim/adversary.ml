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
  | Oblivious of (round:int -> two_m:int -> (int * int) list)
  | Oblivious_fixing of (round:int -> two_m:int -> (int * int) list)
  | Adaptive of { budget : int -> int; strategy : context -> (int * int) list }

(* Slot (round, dir) draws one word [w = Util.Rng.at ~seed:key (coord
   round dir)]: a pure function of the slot.  A slot is hit when the top
   53 bits of [w], as a fraction of 2^53, fall below the rate; a hit
   reads the other bits it needs (bit 0, or [w lsr 2] mod 3).  The draw
   and the in-width [coord] cell are restated here so that they inline
   into the round loop: every int64 stays an unboxed local, and a round
   without a hit allocates nothing. *)
let width = 65536

let[@inline] slot ~round ~dir =
  if dir < width then (round * width) + dir else Util.Rng.coord ~width round dir

let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let[@inline] draw ~key i = mix (Int64.add key (Int64.mul (Int64.of_int (i + 1)) 0x9E3779B97F4A7C15L))

(* The top 53 bits [x] of a word are exact in a float, and scaling by a
   power of two is exact, so [x / 2^53 < rate] holds iff [x] lies below
   the integer [below rate]. *)
let below rate =
  let t = rate *. 9007199254740992. in
  if t >= 9007199254740992. then 1 lsl 53 else if t > 0. then int_of_float (Float.ceil t) else 0

(* The round's hits over dirs [0, two_m), consed from the top down so
   the list comes out ascending.  An additive hit carries its addend
   1 + (bit 0); a fixing hit its forced symbol ([w lsr 2] mod 3). *)
let scan ~key ~below ~fixing ~round ~two_m =
  let hits = ref [] in
  for dir = two_m - 1 downto 0 do
    let w = draw ~key (slot ~round ~dir) in
    if Int64.to_int (Int64.shift_right_logical w 11) < below then
      hits :=
        ( dir,
          if fixing then Int64.to_int (Int64.shift_right_logical w 2) mod 3
          else 1 + (Int64.to_int w land 1) )
        :: !hits
  done;
  !hits

let iid rng ~rate =
  let key = Util.Rng.int64 rng and below = below rate in
  Oblivious (fun ~round ~two_m -> scan ~key ~below ~fixing:false ~round ~two_m)

let iid_fixing rng ~rate =
  let key = Util.Rng.int64 rng and below = below rate in
  Oblivious_fixing (fun ~round ~two_m -> scan ~key ~below ~fixing:true ~round ~two_m)

let burst rng ~start_round ~len ~dirs =
  let dirs = List.sort_uniq compare (List.filter (fun d -> d >= 0) dirs) in
  let key = Util.Rng.int64 rng in
  Oblivious
    (fun ~round ~two_m ->
      if round >= start_round && round < start_round + len then
        List.filter_map
          (fun dir ->
            if dir < two_m then
              Some (dir, 1 + (Int64.to_int (draw ~key (slot ~round ~dir)) land 1))
            else None)
          dirs
      else [])

let single ~round ~dir ~addend =
  let hit = if addend = 0 then [] else [ (dir, addend) ] in
  Oblivious (fun ~round:r ~two_m -> if r = round && dir >= 0 && dir < two_m then hit else [])

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
