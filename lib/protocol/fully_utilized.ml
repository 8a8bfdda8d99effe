let of_pi pi =
  let g = pi.Pi.graph in
  let two_m = 2 * Topology.Graph.m g in
  (* [marks] flags the (round, dir) pairs of the original schedule. *)
  let marks = Array.make (pi.Pi.rounds * two_m) false in
  Array.iteri (fun r ds -> Array.iter (fun d -> marks.((r * two_m) + d) <- true) ds) pi.Pi.schedule;
  let scheduled r d = marks.((r * two_m) + d) in
  let mem round ~src ~dst = scheduled round (Topology.Graph.dir_id g ~src ~dst) in
  (* The original transmissions keep their original relative order (a
     machine's behaviour may depend on intra-round ordering); the dummy
     fill follows, in dir order. *)
  let sends_at r =
    Pi.sends_at pi r
    @ List.filter_map
        (fun d -> if scheduled r d then None else Some (Topology.Graph.dir_ends g d))
        (List.init two_m Fun.id)
  in
  let rec machine ~party inner =
    Pi.
      {
        send =
          (fun ~round ~dst -> if mem round ~src:party ~dst then inner.send ~round ~dst else false);
        recv =
          (fun ~round ~src bit -> if mem round ~src ~dst:party then inner.recv ~round ~src bit);
        output = inner.output;
        snapshot = (fun () -> machine ~party (inner.snapshot ()));
      }
  in
  let spawn ~party ~input = machine ~party (pi.Pi.spawn ~party ~input) in
  Pi.make ~graph:g ~rounds:pi.Pi.rounds ~sends_at ~spawn

let expansion pi =
  let cc = Pi.cc pi in
  if cc = 0 then infinity
  else float_of_int (2 * Topology.Graph.m pi.Pi.graph * pi.Pi.rounds) /. float_of_int cc
