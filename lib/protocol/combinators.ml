let combine_outputs a b =
  Int64.to_int
    (Int64.logand
       (Util.Rng.mix (Int64.add (Int64.mul (Int64.of_int a) 0x9E3779B97F4A7C15L) (Int64.of_int b)))
       0x3FFFFFFFFFFFFFFL)

let same_graph g h =
  Topology.Graph.n g = Topology.Graph.n h && Topology.Graph.edges g = Topology.Graph.edges h

let sequence p q =
  if not (same_graph p.Pi.graph q.Pi.graph) then
    invalid_arg "Combinators.sequence: protocols over different graphs";
  let r1 = p.Pi.rounds in
  let sends_at r = if r < r1 then Pi.sends_at p r else Pi.sends_at q (r - r1) in
  let rec machine m1 m2 =
    Pi.
      {
        send =
          (fun ~round ~dst ->
            if round < r1 then m1.send ~round ~dst else m2.send ~round:(round - r1) ~dst);
        recv =
          (fun ~round ~src bit ->
            if round < r1 then m1.recv ~round ~src bit else m2.recv ~round:(round - r1) ~src bit);
        output = (fun () -> combine_outputs (m1.output ()) (m2.output ()));
        snapshot = (fun () -> machine (m1.snapshot ()) (m2.snapshot ()));
      }
  in
  let spawn ~party ~input = machine (p.Pi.spawn ~party ~input) (q.Pi.spawn ~party ~input) in
  Pi.make ~graph:p.Pi.graph ~rounds:(r1 + q.Pi.rounds) ~sends_at ~spawn

let repeat k p =
  if k < 1 then invalid_arg "Combinators.repeat: k < 1";
  let rec go acc i = if i = 0 then acc else go (sequence acc p) (i - 1) in
  go p (k - 1)
