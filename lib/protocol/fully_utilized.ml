let all_dirs graph =
  let acc = ref [] in
  let edges = Topology.Graph.edges graph in
  for i = Array.length edges - 1 downto 0 do
    let u, v = edges.(i) in
    let lo = min u v and hi = max u v in
    acc := (lo, hi) :: (hi, lo) :: !acc
  done;
  !acc

let of_pi pi =
  let dirs = all_dirs pi.Pi.graph in
  (* Memoised per-round lookup of the original schedule. *)
  let cache : (int, (int * int, unit) Hashtbl.t) Hashtbl.t = Hashtbl.create 64 in
  let scheduled r =
    match Hashtbl.find_opt cache r with
    | Some set -> set
    | None ->
        let set = Hashtbl.create 8 in
        List.iter (fun (u, v) -> Hashtbl.replace set (u, v) ()) (pi.Pi.sends_at r);
        Hashtbl.replace cache r set;
        set
  in
  (* The original transmissions keep their original relative order (a
     machine's behaviour may depend on intra-round ordering); the dummy
     fill follows. *)
  let sends_at r =
    if r >= pi.Pi.rounds then []
    else begin
      let sched = pi.Pi.sends_at r in
      let set = scheduled r in
      sched @ List.filter (fun d -> not (Hashtbl.mem set d)) dirs
    end
  in
  let rec machine ~party inner =
    Pi.
      {
        send =
          (fun ~round ~dst ->
            if Hashtbl.mem (scheduled round) (party, dst) then inner.send ~round ~dst else false);
        recv =
          (fun ~round ~src bit ->
            if Hashtbl.mem (scheduled round) (src, party) then inner.recv ~round ~src bit);
        output = inner.output;
        snapshot = (fun () -> machine ~party (inner.snapshot ()));
      }
  in
  let spawn ~party ~input = machine ~party (pi.Pi.spawn ~party ~input) in
  Pi.{ graph = pi.Pi.graph; rounds = pi.Pi.rounds; sends_at; spawn }

let expansion pi =
  let cc = Pi.cc pi in
  if cc = 0 then infinity
  else float_of_int (2 * Topology.Graph.m pi.Pi.graph * pi.Pi.rounds) /. float_of_int cc
