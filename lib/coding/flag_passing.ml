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
  { tree; up_dir; down_dir; by_level }

type probe = { on_missing : shard:int -> node:int -> unit }

(* The phase, driven through a live execution engine.

   Upward convergecast: nodes at level d - r speak in round r, so a
   parent has heard all its children before its own sending round.
   Downward broadcast: level ℓ speaks in round (d - 1) + (ℓ - 1), and
   every node forwards its own netCorrect, not the raw bit.  Each round
   costs O(|sender level|), not O(2m).  Each node's agg / netCorrect
   cell is written only by the shard owning the node, so rounds
   parallelize without locks.  [probe] callbacks fire on worker
   shards. *)
let run_exec ?alive ?probe ?label ex sched ~statuses ~agg ~net_correct =
  let module Exec = Live.Exec in
  let tree = sched.tree in
  let d = tree.Graph.depth in
  let root = tree.Graph.root in
  let up v = match alive with None -> true | Some a -> a.(v) in
  let missing ~shard v =
    match probe with None -> () | Some pr -> pr.on_missing ~shard ~node:v
  in
  Exec.slice ex (fun w ->
      let lo, hi = Exec.bounds ex ~shard:w in
      Array.blit statuses lo agg lo (hi - lo);
      Array.fill net_correct lo (hi - lo) false);
  let label = ref label in
  let take_label () =
    let l = !label in
    label := None;
    l
  in
  for r = 0 to d - 2 do
    let senders = sched.by_level.(d - r) in
    Exec.round ex ?label:(take_label ())
      ~write:(fun ~shard buf ->
        Array.iter
          (fun v ->
            if v <> root && Exec.owner ex v = shard && up v then
              Netsim.Network.Active.send buf ~dir:sched.up_dir.(v) agg.(v))
          senders)
      ~read:(fun ~shard master ->
        Array.iter
          (fun c ->
            (* A parent expects a flag from each child at the sender
               level; a missing flag reads as stop. *)
            if c <> root then begin
              let p = tree.Graph.parent.(c) in
              if Exec.owner ex p = shard && up p then
                match Netsim.Network.Active.get master ~dir:sched.up_dir.(c) with
                | Some bit -> agg.(p) <- agg.(p) && bit
                | None ->
                    missing ~shard c;
                    agg.(p) <- false
            end)
          senders)
      ()
  done;
  Exec.slice ex (fun w ->
      if Exec.owner ex root = w then net_correct.(root) <- agg.(root) && up root);
  for ell = 1 to d - 1 do
    Exec.round ex ?label:(take_label ())
      ~write:(fun ~shard buf ->
        Array.iter
          (fun v ->
            if Exec.owner ex v = shard && up v then
              Array.iter
                (fun c -> Netsim.Network.Active.send buf ~dir:sched.down_dir.(c) net_correct.(v))
                tree.Graph.children.(v))
          sched.by_level.(ell))
      ~read:(fun ~shard master ->
        Array.iter
          (fun v ->
            if v <> root && Exec.owner ex v = shard then
              net_correct.(v) <-
                up v
                &&
                match Netsim.Network.Active.get master ~dir:sched.down_dir.(v) with
                | Some bit -> bit && statuses.(v)
                | None ->
                    missing ~shard v;
                    false)
          sched.by_level.(ell + 1))
      ()
  done;
  (* A label that never found a round to ride (degenerate depth-1 tree):
     apply it through a slice-free no-traffic round would cost a network
     round lockstep never ran — instead the caller's next phase label
     supersedes it, which is also what the reference backend observes. *)
  ignore (take_label () : (unit -> unit) option)

let run net ~tree ~statuses =
  let n = Array.length statuses in
  let sched = compile (Netsim.Network.graph net) ~tree in
  let ex = Live.Exec.create ~net ~config:Live.Config.default ~weights:(Array.make n 1) () in
  let agg = Array.make n false and net_correct = Array.make n false in
  Fun.protect
    ~finally:(fun () -> Live.Exec.shutdown ex)
    (fun () -> run_exec ex sched ~statuses ~agg ~net_correct);
  net_correct
