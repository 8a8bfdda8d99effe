type machine = {
  send : round:int -> dst:int -> bool;
  recv : round:int -> src:int -> bool -> unit;
  output : unit -> int;
  snapshot : unit -> machine;
}

type t = {
  graph : Topology.Graph.t;
  rounds : int;
  sends_at : int -> (int * int) list;
  spawn : party:int -> input:int -> machine;
}

let cc t =
  let total = ref 0 in
  for r = 0 to t.rounds - 1 do
    total := !total + List.length (t.sends_at r)
  done;
  !total

let validate t =
  (* [seen.(d)] is the last round that scheduled directed link [d]. *)
  let seen = Array.make (2 * Topology.Graph.m t.graph) (-1) in
  for r = 0 to t.rounds - 1 do
    List.iter
      (fun (u, v) ->
        if not (Topology.Graph.are_adjacent t.graph u v) then
          invalid_arg (Printf.sprintf "Pi.validate: round %d schedules non-adjacent %d->%d" r u v);
        let d = Topology.Graph.dir_id t.graph ~src:u ~dst:v in
        if seen.(d) = r then
          invalid_arg (Printf.sprintf "Pi.validate: round %d schedules %d->%d twice" r u v);
        seen.(d) <- r)
      (t.sends_at r)
  done

let run_noiseless t ~inputs =
  let n = Topology.Graph.n t.graph in
  if Array.length inputs <> n then invalid_arg "Pi.run_noiseless: wrong input count";
  let machines = Array.init n (fun party -> t.spawn ~party ~input:inputs.(party)) in
  for r = 0 to t.rounds - 1 do
    let scheduled = t.sends_at r in
    (* Synchrony: all sends of a round are computed before any delivery. *)
    let bits = List.map (fun (u, v) -> (u, v, machines.(u).send ~round:r ~dst:v)) scheduled in
    List.iter (fun (u, v, b) -> machines.(v).recv ~round:r ~src:u b) bits
  done;
  Array.map (fun mc -> mc.output ()) machines
