(* The live execution engine.  A phase driver describes each global
   round as a pair of callbacks — [write buf] submits the round's
   transmissions of every party; [read master] consumes the delivered
   round — plus [block]s (a run of rounds whose sends are all known
   upfront, written and read as words and committed by one
   [Network.commit_block]) and occasional [slice] steps (no network).

   Everything runs inline on the calling domain, each callback once per
   round over all parties.  With d = 0 the driver writes straight into
   one master buffer and the engine is *exactly* the historical lockstep
   loop; with d > 0 it simulates raggedness deterministically: a keyed
   RNG delays one jitter unit's whole round by a lag in [1..d], booking
   the deletions/insertions through the network's jitter hooks.  Jitter
   units are contiguous party ranges ({!Shard.partition}); they are the
   engine's own business, and only routing a lagging round needs them. *)

module Network = Netsim.Network
module Active = Netsim.Network.Active

type t = {
  net : Network.t;
  two_m : int;
  d : int;
  master : Active.t;
  scratch : Active.t;
  (* Per jitter unit, the directions its parties send on, ascending
     (empty at d = 0, where no unit lags), and this round's lag. *)
  unit_outs : int array array;
  lags : int array;
  (* slot -> (dir, bit) list of delayed symbols due to surface there *)
  pending : (int * bool) list array;
  jitter_rate : float;
  jitter_key : int64;
  (* Rounds issued so far, counted before each round runs (a round that
     raises is still counted, as the historical loop did). *)
  mutable rounds_run : int;
  mutable delayed : int;
  mutable surfaced : int;
  (* [block]'s word buffers (out, in), kept while the shape repeats. *)
  mutable blocks : (Network.Block.t * Network.Block.t) option;
}

(* Unit [w]'s out-directions: those whose source party it holds. *)
let unit_outs net sh =
  let outs = Array.make (Shard.shards sh) [] in
  for dir = (2 * Topology.Graph.m (Network.graph net)) - 1 downto 0 do
    let w = Shard.owner sh (fst (Network.link_ends net ~dir)) in
    outs.(w) <- dir :: outs.(w)
  done;
  Array.map Array.of_list outs

let create ~net ~(config : Config.t) ~weights () =
  let d = config.ragged_d in
  let unit_outs =
    if d = 0 then [||]
    else begin
      let sh = Shard.partition ~weights ~shards:config.shards in
      Logging.Live_log.debug (fun m -> m "engine: d=%d, jitter units %a" d Shard.pp sh);
      unit_outs net sh
    end
  in
  {
    net;
    two_m = 2 * Topology.Graph.m (Network.graph net);
    d;
    master = Network.active net;
    scratch = Network.active net;
    unit_outs;
    lags = Array.make (Array.length unit_outs) 0;
    pending = Array.make (d + 1) [];
    jitter_rate = config.jitter_rate;
    jitter_key = config.jitter_key;
    rounds_run = 0;
    delayed = 0;
    surfaced = 0;
    blocks = None;
  }

let rounds_run t = t.rounds_run
let jitter_dropped t = t.delayed
let jitter_surfaced t = t.surfaced

(* Deterministic jitter: whether unit [w]'s round [q] lags, and by how
   much, is a pure function of the jitter key — reruns are identical. *)
let draw_lag t ~q w =
  if t.jitter_rate <= 0. then 0
  else begin
    let u = Util.Rng.at ~seed:t.jitter_key ((q * 8192) + w) in
    let frac =
      Int64.to_float (Int64.logand u 0x1FFFFFFFFFFFFFL) /. 9007199254740992.0
    in
    if frac >= t.jitter_rate then 0
    else 1 + (Int64.to_int (Int64.shift_right_logical u 53) mod t.d)
  end

(* Round [q]'s writes under keyed jitter (d > 0).  Delayed symbols due
   this round surface first, so a fresh symbol on the same link wins
   (substitution semantics).  When some unit lags, the driver writes
   into scratch and the engine routes the round unit by unit, each
   unit's out-directions in ascending order: a lagging unit's symbols
   are stalled into [pending], the others go to the master buffer. *)
let jittered_write t ~q write =
  let slot = q mod (t.d + 1) in
  List.iter
    (fun (dir, bit) ->
      Active.send t.master ~dir bit;
      Network.note_injected t.net ~dir;
      t.surfaced <- t.surfaced + 1)
    (List.rev t.pending.(slot));
  t.pending.(slot) <- [];
  let lagging = ref false in
  for w = 0 to Array.length t.lags - 1 do
    let lag = draw_lag t ~q w in
    t.lags.(w) <- lag;
    if lag > 0 then lagging := true
  done;
  if not !lagging then write ~shard:0 t.master
  else begin
    Active.begin_round t.scratch;
    write ~shard:0 t.scratch;
    Array.iteri
      (fun w dirs ->
        let lag = t.lags.(w) in
        let tgt = (q + lag) mod (t.d + 1) in
        Array.iter
          (fun dir ->
            match Active.get t.scratch ~dir with
            | None -> ()
            | Some bit when lag = 0 -> Active.send t.master ~dir bit
            | Some bit ->
                Network.note_stalled t.net ~dir;
                t.delayed <- t.delayed + 1;
                t.pending.(tgt) <- (dir, bit) :: t.pending.(tgt))
          dirs)
      t.unit_outs
  end

let round t ?label ~write ~read () =
  let q = t.rounds_run in
  t.rounds_run <- q + 1;
  Active.begin_round t.master;
  if t.d = 0 then write ~shard:0 t.master else jittered_write t ~q write;
  (match label with Some f -> f () | None -> ());
  Network.commit t.net t.master;
  read ~shard:0 t.master

let block_buffers t ~width ~fields =
  match t.blocks with
  | Some ((out, _) as b)
    when Network.Block.width out = width && Network.Block.fields out = fields ->
      b
  | _ ->
      let g = Network.graph t.net in
      let b = (Network.Block.create g ~width ~fields, Network.Block.create g ~width ~fields) in
      t.blocks <- Some b;
      b

(* At d = 0 no round can lag, so a block is one write, one commit and
   one read.  Under keyed jitter (d > 0) drift is per round, so the
   block runs as [rounds] ordinary rounds: round [r] sends bit [r] of
   each out-word and records each delivered symbol into the in-words;
   the first round's write fills the out-words and the last round's
   read hands the in-words over. *)
let block t ?label ~width ~rounds ~write ~read () =
  if rounds < 1 then invalid_arg "Live.Exec.block: rounds < 1";
  if width < 1 || width >= Sys.int_size then invalid_arg "Live.Exec.block: width out of range";
  let out, inw = block_buffers t ~width ~fields:((rounds + width - 1) / width) in
  let write_words () =
    for dir = 0 to t.two_m - 1 do
      Network.Block.silence out ~dir
    done;
    write out
  in
  if t.d = 0 then begin
    t.rounds_run <- t.rounds_run + rounds;
    write_words ();
    (match label with Some f -> f () | None -> ());
    Network.commit_block t.net ~rounds ~out ~inw;
    read inw
  end
  else
    for r = 0 to rounds - 1 do
      round t
        ?label:(if r = 0 then label else None)
        ~write:(fun ~shard:_ buf ->
          if r = 0 then write_words ();
          for dir = 0 to t.two_m - 1 do
            match Network.Block.get out ~dir ~round:r with
            | Some bit -> Active.send buf ~dir bit
            | None -> ()
          done)
        ~read:(fun ~shard:_ master ->
          for dir = 0 to t.two_m - 1 do
            if r = 0 then Network.Block.silence inw ~dir;
            match Active.get master ~dir with
            | Some bit -> Network.Block.send inw ~dir ~round:r bit
            | None -> ()
          done;
          if r = rounds - 1 then read inw)
        ()
    done

let slice (_ : t) f = f 0
let join (_ : t) = ()

let shutdown (_ : t) = ()
