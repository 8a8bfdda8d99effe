type machine = {
  send : round:int -> dst:int -> bool;
  recv : round:int -> src:int -> bool -> unit;
  output : unit -> int;
  snapshot : unit -> machine;
}

type t = {
  graph : Topology.Graph.t;
  rounds : int;
  schedule : int array array;
  spawn : party:int -> input:int -> machine;
}

let make ~graph ~rounds ~sends_at ~spawn =
  (* [seen.(d)] is the last round that scheduled directed link [d]. *)
  let seen = Array.make (2 * Topology.Graph.m graph) (-1) in
  let compile r (u, v) =
    if not (Topology.Graph.are_adjacent graph u v) then
      invalid_arg (Printf.sprintf "Pi.make: round %d schedules non-adjacent %d->%d" r u v);
    let d = Topology.Graph.dir_id graph ~src:u ~dst:v in
    if seen.(d) = r then
      invalid_arg (Printf.sprintf "Pi.make: round %d schedules %d->%d twice" r u v);
    seen.(d) <- r;
    d
  in
  let schedule = Array.init rounds (fun r -> Array.of_list (List.map (compile r) (sends_at r))) in
  { graph; rounds; schedule; spawn }

let sends_at t r = Array.to_list (Array.map (Topology.Graph.dir_ends t.graph) t.schedule.(r))
let cc t = Array.fold_left (fun acc ds -> acc + Array.length ds) 0 t.schedule

let run_noiseless t ~inputs =
  let g = t.graph in
  let n = Topology.Graph.n g in
  if Array.length inputs <> n then invalid_arg "Pi.run_noiseless: wrong input count";
  let machines = Array.init n (fun party -> t.spawn ~party ~input:inputs.(party)) in
  let bits = Array.make (2 * Topology.Graph.m g) false in
  Array.iteri
    (fun r ds ->
      (* Synchrony: all sends of a round are computed before any delivery. *)
      Array.iter
        (fun d ->
          let u, v = Topology.Graph.dir_ends g d in
          bits.(d) <- machines.(u).send ~round:r ~dst:v)
        ds;
      Array.iter
        (fun d ->
          let u, v = Topology.Graph.dir_ends g d in
          machines.(v).recv ~round:r ~src:u bits.(d))
        ds)
    t.schedule;
  Array.map (fun mc -> mc.output ()) machines
