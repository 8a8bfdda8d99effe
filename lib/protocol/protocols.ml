(* Mixing function for digest machines: a cheap avalanche so that outputs
   depend on every received bit, making undetected corruptions visible. *)
let mix d x =
  let d = Int64.of_int d and x = Int64.of_int x in
  Int64.to_int
    (Int64.logand
       (Util.Rng.mix (Int64.add (Int64.mul d 0x9E3779B97F4A7C15L) x))
       0x3FFFFFFFFFFFFFFL)

(* A machine whose sends are digest-derived bits and whose output is the
   digest of its whole history — used by protocols whose purpose is to be
   corruption-sensitive rather than to compute something meaningful. *)
let rec digest_machine d =
  Pi.
    {
      send =
        (fun ~round ~dst ->
          let bit = mix !d ((round * 1021) + dst) land 1 = 1 in
          (* Sending also folds into the digest so that both endpoints'
             histories stay coupled. *)
          d := mix !d ((2 * round) + if bit then 1 else 0);
          bit);
      recv =
        (fun ~round ~src bit ->
          d := mix !d ((round * 4093) + (src * 2) + if bit then 1 else 0));
      output = (fun () -> !d);
      snapshot = (fun () -> digest_machine (ref !d));
    }

let ring_sum ~n ~bits =
  if n < 3 then invalid_arg "Protocols.ring_sum: n < 3";
  if bits < 1 || bits > 30 then invalid_arg "Protocols.ring_sum: bits";
  let graph = Topology.Graph.cycle n in
  let mask = (1 lsl bits) - 1 in
  let rounds = 2 * n * bits in
  let sends_at r =
    let src = r / bits mod n in
    [ (src, (src + 1) mod n) ]
  in
  let spawn ~party:_ ~input =
    let x = input land mask in
    let rec machine incoming last_complete =
      Pi.
        {
          send =
            (fun ~round ~dst:_ ->
              let hop = round / bits and j = round mod bits in
              (* First lap (hop < n): forward partial sum + my input.
                 Second lap: forward the total unchanged. *)
              let value = if hop < n then (!last_complete + x) land mask else !last_complete in
              (value lsr j) land 1 = 1);
          recv =
            (fun ~round ~src:_ bit ->
              let j = round mod bits in
              if j = 0 then incoming := 0;
              if bit then incoming := !incoming lor (1 lsl j);
              if j = bits - 1 then last_complete := !incoming);
          output = (fun () -> !last_complete);
          snapshot = (fun () -> machine (ref !incoming) (ref !last_complete));
        }
    in
    machine (ref 0) (ref 0)
  in
  Pi.make ~graph ~rounds ~sends_at ~spawn

let line_flow ~n ~phases ~chat =
  if n < 3 then invalid_arg "Protocols.line_flow: n < 3";
  let graph = Topology.Graph.line n in
  let phase_rounds = n - 1 + chat in
  let rounds = phases * phase_rounds in
  let sends_at r =
    let off = r mod phase_rounds in
    if off < n - 1 then [ (off, off + 1) ]
    else if (off - (n - 1)) mod 2 = 0 then [ (n - 2, n - 1) ]
    else [ (n - 1, n - 2) ]
  in
  let spawn ~party:_ ~input = digest_machine (ref (mix 1 input)) in
  Pi.make ~graph ~rounds ~sends_at ~spawn

let broadcast_tree graph ~bits =
  if bits < 1 || bits > 30 then invalid_arg "Protocols.broadcast_tree: bits";
  let tree = Topology.Graph.bfs_tree graph in
  let n = Topology.Graph.n graph in
  let depth = tree.Topology.Graph.depth in
  let down_rounds = (depth - 1) * bits in
  let up_rounds = max 0 (depth - 1) in
  let rounds = max 1 (down_rounds + up_rounds) in
  let down_block b =
    (* Parents at level b+1 send to their children. *)
    let sends = ref [] in
    for v = n - 1 downto 0 do
      if tree.Topology.Graph.level.(v) = b + 2 then
        sends := (tree.Topology.Graph.parent.(v), v) :: !sends
    done;
    !sends
  in
  let up_block b =
    (* Children at level depth - b send their parity up. *)
    let lvl = depth - b in
    let sends = ref [] in
    for v = n - 1 downto 0 do
      if tree.Topology.Graph.level.(v) = lvl && v <> tree.Topology.Graph.root then
        sends := (v, tree.Topology.Graph.parent.(v)) :: !sends
    done;
    !sends
  in
  let sends_at r =
    if r < down_rounds then down_block (r / bits)
    else if r < down_rounds + up_rounds then up_block (r - down_rounds)
    else []
  in
  let mask = (1 lsl bits) - 1 in
  let spawn ~party ~input =
    let is_root = party = tree.Topology.Graph.root in
    let rec machine value child_parity =
      Pi.
        {
          send =
            (fun ~round ~dst:_ ->
              if round < down_rounds then (!value lsr (round mod bits)) land 1 = 1
              else
                (* Upward parity: parity of my value xor parities received
                   from my children. *)
                ((Util.Bitvec.popcount (Int64.of_int !value) + !child_parity) land 1) = 1);
          recv =
            (fun ~round ~src:_ bit ->
              if round < down_rounds then begin
                let j = round mod bits in
                if bit then value := !value lor (1 lsl j)
              end
              else if bit then child_parity := !child_parity + 1);
          output = (fun () -> !value);
          snapshot = (fun () -> machine (ref !value) (ref !child_parity));
        }
    in
    machine (ref (if is_root then input land mask else 0)) (ref 0)
  in
  Pi.make ~graph ~rounds ~sends_at ~spawn

let pairwise_ip graph ~bits =
  if bits < 1 || bits > 30 then invalid_arg "Protocols.pairwise_ip: bits";
  let edges = Topology.Graph.edges graph in
  let rounds = 2 * bits in
  let sends_at r =
    Array.to_list
      (Array.map
         (fun (u, v) -> if r mod 2 = 0 then (min u v, max u v) else (max u v, min u v))
         edges)
  in
  let mask = (1 lsl bits) - 1 in
  let spawn ~party:_ ~input =
    let x = input land mask in
    let rec machine acc =
      Pi.
        {
          send = (fun ~round ~dst:_ -> (x lsr (round / 2)) land 1 = 1);
          recv =
            (fun ~round ~src:_ bit ->
              let j = round / 2 in
              (* Accumulate ⟨x, x_v⟩ contributions bit by bit, xor over all
                 neighbors. *)
              if bit && (x lsr j) land 1 = 1 then acc := !acc lxor 1);
          output = (fun () -> !acc);
          snapshot = (fun () -> machine (ref !acc));
        }
    in
    machine (ref 0)
  in
  Pi.make ~graph ~rounds ~sends_at ~spawn

let gossip_max graph ~bits =
  if bits < 1 || bits > 30 then invalid_arg "Protocols.gossip_max: bits";
  let phases = Topology.Graph.diameter graph + 1 in
  let rounds = phases * bits in
  let dirs = List.init (2 * Topology.Graph.m graph) (Topology.Graph.dir_ends graph) in
  let sends_at _ = dirs in
  let mask = (1 lsl bits) - 1 in
  (* [incoming]: this phase's values, keyed by sender; merged at phase end. *)
  let rec machine best incoming last_phase =
    let merge () =
      Hashtbl.iter (fun _ v -> if v > !best then best := v) incoming;
      Hashtbl.reset incoming
    in
    let phase_of round =
      let p = round / bits in
      if p > !last_phase then begin
        merge ();
        last_phase := p
      end
    in
    Pi.
      {
        send =
          (fun ~round ~dst:_ ->
            phase_of round;
            (!best lsr (round mod bits)) land 1 = 1);
        recv =
          (fun ~round ~src bit ->
            phase_of round;
            let j = round mod bits in
            let v = Option.value ~default:0 (Hashtbl.find_opt incoming src) in
            Hashtbl.replace incoming src (if bit then v lor (1 lsl j) else v));
        output = (fun () -> Hashtbl.fold (fun _ v b -> max v b) incoming !best);
        snapshot = (fun () -> machine (ref !best) (Hashtbl.copy incoming) (ref !last_phase));
      }
  in
  let spawn ~party:_ ~input = machine (ref (input land mask)) (Hashtbl.create 4) (ref 0) in
  Pi.make ~graph ~rounds ~sends_at ~spawn

let convergecast_sum graph ~bits =
  if bits < 1 || bits > 20 then invalid_arg "Protocols.convergecast_sum: bits";
  let n = Topology.Graph.n graph in
  let tree = Topology.Graph.bfs_tree graph in
  let depth = tree.Topology.Graph.depth in
  let log2n =
    let rec lg acc p = if p >= n then acc else lg (acc + 1) (2 * p) in
    lg 0 1
  in
  let width = min 30 (bits + max 1 log2n) in
  let mask = (1 lsl width) - 1 in
  (* Upward blocks: children at level d, d-1, …, 2 send [width] bits to
     their parents; then downward blocks mirror the broadcast. *)
  let up_blocks = max 0 (depth - 1) in
  let down_blocks = max 0 (depth - 1) in
  let rounds = max 1 ((up_blocks + down_blocks) * width) in
  let level_members lvl =
    let acc = ref [] in
    for v = n - 1 downto 0 do
      if tree.Topology.Graph.level.(v) = lvl && v <> tree.Topology.Graph.root then
        acc := v :: !acc
    done;
    !acc
  in
  let sends_at r =
    let block = r / width in
    if block < up_blocks then
      List.map (fun v -> (v, tree.Topology.Graph.parent.(v))) (level_members (depth - block))
    else if block < up_blocks + down_blocks then
      let lvl = block - up_blocks + 1 in
      List.concat_map
        (fun (p : int) ->
          if tree.Topology.Graph.level.(p) = lvl then
            Array.to_list (Array.map (fun c -> (p, c)) tree.Topology.Graph.children.(p))
          else [])
        (List.init n (fun i -> i))
    else []
  in
  let spawn ~party:_ ~input =
    let rec machine acc incoming total =
      Pi.
        {
          send =
            (fun ~round ~dst:_ ->
              let block = round / width and j = round mod width in
              let value =
                if block < up_blocks then begin
                  (* Fold the children's subtotals in before speaking. *)
                  Hashtbl.iter (fun _ v -> acc := (!acc + v) land mask) incoming;
                  Hashtbl.reset incoming;
                  !acc
                end
                else
                  match !total with
                  | Some t -> t
                  | None ->
                      (* The root computes the total as the downward phase
                         starts. *)
                      Hashtbl.iter (fun _ v -> acc := (!acc + v) land mask) incoming;
                      Hashtbl.reset incoming;
                      total := Some !acc;
                      !acc
              in
              (value lsr j) land 1 = 1);
          recv =
            (fun ~round ~src bit ->
              let block = round / width and j = round mod width in
              if block < up_blocks then begin
                let v = Option.value ~default:0 (Hashtbl.find_opt incoming src) in
                Hashtbl.replace incoming src (if bit then v lor (1 lsl j) else v)
              end
              else begin
                let v = Option.value ~default:0 !total in
                let v = if bit then v lor (1 lsl j) else v land lnot (1 lsl j) in
                total := Some v
              end);
          output =
            (fun () ->
              match !total with
              | Some t -> t
              | None ->
                  (* The root never receives downward: its subtotal plus
                     the children's pending ones. *)
                  Hashtbl.fold (fun _ v a -> (a + v) land mask) incoming !acc);
          snapshot = (fun () -> machine (ref !acc) (Hashtbl.copy incoming) (ref !total));
        }
    in
    machine (ref (input land ((1 lsl bits) - 1))) (Hashtbl.create 4) (ref None)
  in
  Pi.make ~graph ~rounds ~sends_at ~spawn

let random_chatter graph ~rounds ~density ~seed =
  if density < 0. || density > 1. then invalid_arg "Protocols.random_chatter: density";
  let edges = Topology.Graph.edges graph in
  let key = Util.Rng.mix (Int64.of_int (seed + 0x5afe)) in
  let speaks r dir_index =
    let w = Util.Rng.at ~seed:key (Util.Rng.coord ~width:65536 r dir_index) in
    Int64.to_float (Int64.shift_right_logical w 11) *. (1. /. 9007199254740992.) < density
  in
  let sends_at r =
    let acc = ref [] in
    Array.iteri
      (fun i (u, v) ->
        let lo = min u v and hi = max u v in
        if speaks r ((2 * i) + 1) then acc := (hi, lo) :: !acc;
        if speaks r (2 * i) then acc := (lo, hi) :: !acc)
      edges;
    !acc
  in
  let spawn ~party:_ ~input = digest_machine (ref (mix 1 input)) in
  Pi.make ~graph ~rounds ~sends_at ~spawn
