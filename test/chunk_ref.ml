(* A reference chunk packer for the tests, written straight from the
   rules of §3.2 and independent of [Protocol.Chunking]'s flat view:
   it packs [Pi.sends_at] pairs greedily while keeping 2m slots of
   headroom, tops each chunk up to 5K slots with padding rounds that
   cycle through the directed links in dir-id order, and ends with one
   dummy chunk of pure padding that every chunk past the real ones
   shares.  Chunks are slot lists per round, so tests can rescan them. *)

open Protocol

type slot = { pi_round : int option; src : int; dst : int }
(** [pi_round = None] for virtual padding. *)

type t = { graph : Topology.Graph.t; chunks : slot list array array }
(* [chunks.(i)] is chunk i+1's rounds; the last entry is the dummy. *)

(* Dir id 2e is edge e from its lower endpoint, 2e + 1 from its higher. *)
let dirs g =
  Array.concat
    (List.map (fun (u, v) -> [| (min u v, max u v); (max u v, min u v) |])
       (Array.to_list (Topology.Graph.edges g)))

let padding dirs count =
  let two_m = Array.length dirs in
  List.init ((count + two_m - 1) / two_m) (fun r ->
      List.init (min two_m (count - (r * two_m))) (fun i ->
          let src, dst = dirs.(i) in
          { pi_round = None; src; dst }))

let make pi ~k =
  let g = pi.Pi.graph in
  let dirs = dirs g in
  let two_m = Array.length dirs and k5 = 5 * k in
  let chunks = ref [] and current = ref [] and comm = ref 0 in
  let flush () =
    chunks := Array.of_list (List.rev !current @ padding dirs (k5 - !comm)) :: !chunks;
    current := [];
    comm := 0
  in
  for r = 0 to pi.Pi.rounds - 1 do
    let sends = Pi.sends_at pi r in
    if !comm + List.length sends > k5 - two_m then flush ();
    current := List.map (fun (src, dst) -> { pi_round = Some r; src; dst }) sends :: !current;
    comm := !comm + List.length sends
  done;
  if !current <> [] || !chunks = [] then flush ();
  { graph = g; chunks = Array.of_list (List.rev (Array.of_list (padding dirs k5) :: !chunks)) }

let n_real t = Array.length t.chunks - 1

(* The rounds of 1-based chunk [i]; past [n_real], the dummy. *)
let chunk t i = t.chunks.(min i (n_real t + 1) - 1)

(* The slots of chunk [i] on [edge], in schedule order (round ascending,
   then list order): (round offset, src, dst, is padding). *)
let link_slots t i ~edge =
  let acc = ref [] in
  Array.iteri
    (fun roff slots ->
      List.iter
        (fun s ->
          if Topology.Graph.edge_id t.graph s.src s.dst = edge then
            acc := (roff, s.src, s.dst, s.pi_round = None) :: !acc)
        slots)
    (chunk t i);
  Array.of_list (List.rev !acc)
