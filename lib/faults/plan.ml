type spec =
  | Crash of { party : int; at_iteration : int; recover_at : int option }
  | Link_stall of { edge : int; from_round : int; rounds : int }
  | Noise_overload of { factor : float; from_round : int; rounds : int; rate : float }
  | Transcript_rot of { party : int; at_iteration : int }
  | Seed_rot of { party : int; from_iteration : int }

type t = { key : string; key64 : int64; specs : spec list }

let empty = { key = ""; key64 = 0L; specs = [] }

let make ~key specs = { key; key64 = Util.Rng.int64 (Util.Rng.of_key key); specs }
let key t = t.key
let specs t = t.specs
let is_empty t = t.specs = []

let crashed t ~party ~iteration =
  List.exists
    (function
      | Crash { party = p; at_iteration; recover_at } ->
          p = party && iteration >= at_iteration
          && (match recover_at with None -> true | Some j -> iteration < j)
      | _ -> false)
    t.specs

let rejoins t ~party ~iteration =
  List.exists
    (function
      | Crash { party = p; at_iteration; recover_at = Some j } ->
          p = party && iteration = j && j > at_iteration
      | _ -> false)
    t.specs

let transcript_rot t ~party ~iteration =
  List.exists
    (function
      | Transcript_rot { party = p; at_iteration } -> p = party && at_iteration = iteration
      | _ -> false)
    t.specs

let seed_rot t ~party ~iteration =
  List.exists
    (function
      | Seed_rot { party = p; from_iteration } -> p = party && iteration >= from_iteration
      | _ -> false)
    t.specs

(* The plan's pseudorandom die: a pure function of (key, salt, coord),
   so every decision replays identically at any job count.  Each
   (salt, coord) pair draws its own word: salts (1-5 in use) are the
   columns of an 8-wide keyed grid, so no two pairs share an index. *)
let word t ~salt ~coord = Util.Rng.at ~seed:t.key64 (Util.Rng.coord ~width:8 coord salt)

let choice t ~salt ~coord ~bound =
  if bound <= 0 then invalid_arg "Plan.choice: bound <= 0";
  Int64.to_int (Int64.rem (Int64.shift_right_logical (word t ~salt ~coord) 2) (Int64.of_int bound))

let uniform01 w = Int64.to_float (Int64.shift_right_logical w 11) *. (1. /. 9007199254740992.)

let network_hooks t =
  let stalls =
    List.filter_map
      (function Link_stall { edge; from_round; rounds } -> Some (edge, from_round, rounds) | _ -> None)
      t.specs
  and overloads =
    List.filter_map
      (function
        | Noise_overload { factor; from_round; rounds; rate } -> Some (factor, from_round, rounds, rate)
        | _ -> None)
      t.specs
  in
  if stalls = [] && overloads = [] then None
  else
    let stall ~round ~dir =
      let edge = dir / 2 in
      List.exists (fun (e, r0, len) -> e = edge && round >= r0 && round < r0 + len) stalls
    in
    let extra_addend ~round ~dir =
      List.fold_left
        (fun acc (factor, r0, len, rate) ->
          if acc <> 0 || round < r0 || round >= r0 + len then acc
          else begin
            let w = word t ~salt:1 ~coord:(Util.Rng.coord ~width:65536 round dir) in
            if uniform01 w < Float.min 1. (factor *. rate) then
              1 + Int64.to_int (Int64.logand w 1L)
            else 0
          end)
        0 overloads
    in
    let budget_scale ~round =
      List.fold_left
        (fun acc (factor, r0, len, _) ->
          if round >= r0 && round < r0 + len then Float.max acc factor else acc)
        1. overloads
    in
    Some { Netsim.Network.stall; extra_addend; budget_scale }
