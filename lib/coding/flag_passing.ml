open Topology

let rounds_needed (tree : Graph.tree) = 2 * (tree.Graph.depth - 1)

(* The phase's traffic pattern is fixed by the tree, so the directed-link
   indices and per-level sender sets are compiled once per execution and
   the per-round work touches only the level that speaks. *)
type schedule = {
  tree : Graph.tree;
  up_dir : int array; (* v -> dir id of v -> parent(v); -1 at the root *)
  down_dir : int array; (* v -> dir id of parent(v) -> v; -1 at the root *)
  by_level : int array array; (* level (1-based) -> nodes at that level *)
  buf : Netsim.Network.Active.t; (* the phase's round buffer *)
}

let compile graph ~(tree : Graph.tree) =
  let n = Array.length tree.Graph.parent in
  let up_dir = Array.make n (-1) and down_dir = Array.make n (-1) in
  for v = 0 to n - 1 do
    if v <> tree.Graph.root then begin
      let p = tree.Graph.parent.(v) in
      up_dir.(v) <- Graph.dir_id graph ~src:v ~dst:p;
      down_dir.(v) <- Graph.dir_id graph ~src:p ~dst:v
    end
  done;
  let by_level =
    Array.init (tree.Graph.depth + 1) (fun ell ->
        let acc = ref [] in
        for v = n - 1 downto 0 do
          if tree.Graph.level.(v) = ell then acc := v :: !acc
        done;
        Array.of_list !acc)
  in
  { tree; up_dir; down_dir; by_level; buf = Netsim.Network.Active.create graph }

type probe = { on_missing : node:int -> unit }

(* The phase, committed to the network round by round.

   Upward convergecast: nodes at level d - r speak in round r, so a
   parent has heard all its children before its own sending round.
   Downward broadcast: level ℓ speaks in round (d - 1) + (ℓ - 1), and
   every node forwards its own netCorrect, not the raw bit.  Each round
   costs O(|sender level|), not O(2m). *)
let run_exec ?alive ?probe net sched ~statuses ~agg ~net_correct =
  let module Active = Netsim.Network.Active in
  let tree = sched.tree and buf = sched.buf in
  let d = tree.Graph.depth in
  let root = tree.Graph.root in
  let up v = match alive with None -> true | Some a -> a.(v) in
  let missing v = match probe with None -> () | Some pr -> pr.on_missing ~node:v in
  Array.blit statuses 0 agg 0 (Array.length statuses);
  Array.fill net_correct 0 (Array.length net_correct) false;
  for r = 0 to d - 2 do
    let senders = sched.by_level.(d - r) in
    Active.begin_round buf;
    Array.iter
      (fun v -> if v <> root && up v then Active.send buf ~dir:sched.up_dir.(v) agg.(v))
      senders;
    Netsim.Network.commit net buf;
    Array.iter
      (fun c ->
        (* A parent expects a flag from each child at the sender level;
           a missing flag reads as stop. *)
        if c <> root then begin
          let p = tree.Graph.parent.(c) in
          if up p then
            match Active.get buf ~dir:sched.up_dir.(c) with
            | Some bit -> agg.(p) <- agg.(p) && bit
            | None ->
                missing c;
                agg.(p) <- false
        end)
      senders
  done;
  net_correct.(root) <- agg.(root) && up root;
  for ell = 1 to d - 1 do
    Active.begin_round buf;
    Array.iter
      (fun v ->
        if up v then
          Array.iter
            (fun c -> Active.send buf ~dir:sched.down_dir.(c) net_correct.(v))
            tree.Graph.children.(v))
      sched.by_level.(ell);
    Netsim.Network.commit net buf;
    Array.iter
      (fun v ->
        if v <> root then
          net_correct.(v) <-
            up v
            &&
            match Active.get buf ~dir:sched.down_dir.(v) with
            | Some bit -> bit && statuses.(v)
            | None ->
                missing v;
                false)
      sched.by_level.(ell + 1)
  done

let run net ~tree ~statuses =
  let n = Array.length statuses in
  let sched = compile (Netsim.Network.graph net) ~tree in
  let agg = Array.make n false and net_correct = Array.make n false in
  run_exec net sched ~statuses ~agg ~net_correct;
  net_correct
