(* The live execution engine.  A phase driver describes each global
   round as a pair of callbacks — [write shard buf] submits the round's
   transmissions for the parties of [shard]; [read shard master]
   consumes the delivered round — plus [block]s (a run of rounds whose
   sends are all known upfront, written and read as words and committed
   by one [Network.commit_block]) and occasional [slice] jobs (pure
   per-shard state work, no network).

   Everything runs inline on the calling domain, shard by shard in
   shard order.  With d = 0 every shard writes straight into one master
   buffer and the engine is *exactly* the historical lockstep loop; with
   d > 0 it simulates raggedness deterministically (a keyed RNG delays a
   shard's whole round by a lag in [1..d], booking the
   deletions/insertions through the network's jitter hooks).  Shards are
   the unit of that jitter, which is why the partition stays. *)

module Network = Netsim.Network
module Active = Netsim.Network.Active

(* A block of rounds known upfront ([block]): shards write their
   out-directions' words into [w_out], one commit runs the whole block
   into [w_in], shards read their in-directions' words.  [w_outs.(w)] /
   [w_ins.(w)] list the directions shard [w] sends / receives on. *)
type words = {
  w_rounds : int;
  w_out : Network.Block.t;
  w_in : Network.Block.t;
  w_write : shard:int -> Network.Block.t -> unit;
  w_read : shard:int -> Network.Block.t -> unit;
  w_outs : int array array;
  w_ins : int array array;
}

(* Engine probes.  Klass discipline: [live.rounds] and the keyed-jitter
   lag distribution are pure functions of the keyed execution (Exact);
   per-round wall latency depends on real scheduling (Timed).
   [live.rounds] is not probed per round: [shutdown] books it once. *)
type probes = {
  on : bool;
  rounds_c : Metrics.Registry.counter;
  lag_h : Metrics.Registry.hist; (* keyed lag draws (lag >= 1) *)
  round_ns : Metrics.Registry.hist; (* per-round latency, ns *)
}

let make_probes reg =
  let open Metrics.Registry in
  {
    on = is_enabled reg;
    rounds_c = counter reg "live.rounds";
    lag_h = hist reg "live.ragged.lag";
    round_ns = hist reg ~klass:Timed "live.round_ns";
  }

(* Book a job started at [t0] as [rounds] rounds of [live.round_ns]: a
   block's latency is spread evenly over its rounds, so the histogram
   stays a distribution of per-round latencies. *)
let observe_rounds pr ~t0 ~rounds =
  let ns = int_of_float ((Unix.gettimeofday () -. t0) *. 1e9) / rounds in
  for _ = 1 to rounds do
    Metrics.Registry.observe pr.round_ns ns
  done

type t = {
  net : Network.t;
  sh : Shard.t;
  d : int;
  master : Active.t;
  scratch : Active.t;
  (* slot -> (dir, bit) list of delayed symbols due to surface there *)
  pending : (int * bool) list array;
  jitter_rate : float;
  jitter_key : int64;
  (* Rounds issued so far, counted before each round runs (a round that
     raises is still counted, as the historical loop did). *)
  mutable rounds_run : int;
  mutable delayed : int;
  mutable surfaced : int;
  pr : probes;
  mutable shut : bool;
  (* [block]'s word buffers (out, in), kept while the shape repeats, and
     the per-shard (out, in) direction lists, built on first use. *)
  mutable blocks : (Network.Block.t * Network.Block.t) option;
  mutable owned : (int array array * int array array) option;
}

let create ~net ~(config : Config.t) ?(metrics = Metrics.Registry.disabled) ~weights () =
  let sh = Shard.partition ~weights ~shards:config.shards in
  let d = config.ragged_d in
  Logging.Live_log.debug (fun m ->
      m "engine: %d shard(s), d=%d, partition %a" (Shard.shards sh) d Shard.pp sh);
  {
    net;
    sh;
    d;
    master = Network.active net;
    scratch = Network.active net;
    pending = Array.make (d + 1) [];
    jitter_rate = config.jitter_rate;
    jitter_key = config.jitter_key;
    rounds_run = 0;
    delayed = 0;
    surfaced = 0;
    pr = make_probes metrics;
    shut = false;
    blocks = None;
    owned = None;
  }

let shards t = Shard.shards t.sh
let bounds t ~shard = Shard.range t.sh shard
let owner t party = Shard.owner t.sh party
let rounds_run t = t.rounds_run
let jitter_dropped t = t.delayed
let jitter_surfaced t = t.surfaced

(* Deterministic jitter: whether shard [w]'s round [q] lags, and by how
   much, is a pure function of the jitter key — reruns are identical. *)
let draw_lag t ~q w =
  if t.d = 0 || t.jitter_rate <= 0. then 0
  else begin
    let u = Util.Rng.at ~seed:t.jitter_key ((q * 8192) + w) in
    let frac =
      Int64.to_float (Int64.logand u 0x1FFFFFFFFFFFFFL) /. 9007199254740992.0
    in
    if frac >= t.jitter_rate then 0
    else 1 + (Int64.to_int (Int64.shift_right_logical u 53) mod t.d)
  end

let round t ?label ~write ~read () =
  let q = t.rounds_run in
  t.rounds_run <- q + 1;
  let t0 = if t.pr.on then Unix.gettimeofday () else 0. in
  Active.begin_round t.master;
  if t.d > 0 then begin
    (* Delayed symbols due this round surface before fresh traffic, so
       a fresh symbol on the same link wins (substitution semantics). *)
    let slot = q mod (t.d + 1) in
    List.iter
      (fun (dir, bit) ->
        Active.send t.master ~dir bit;
        Network.note_injected t.net ~dir;
        t.surfaced <- t.surfaced + 1)
      (List.rev t.pending.(slot));
    t.pending.(slot) <- []
  end;
  for w = 0 to shards t - 1 do
    let lag = draw_lag t ~q w in
    if lag = 0 then write ~shard:w t.master
    else begin
      (* Keyed lag draw: deterministic, so the distribution is Exact. *)
      if t.pr.on then Metrics.Registry.observe t.pr.lag_h lag;
      Active.begin_round t.scratch;
      write ~shard:w t.scratch;
      let tgt = (q + lag) mod (t.d + 1) in
      Active.iter t.scratch (fun ~dir bit ->
          Network.note_stalled t.net ~dir;
          t.delayed <- t.delayed + 1;
          t.pending.(tgt) <- (dir, bit) :: t.pending.(tgt))
    end
  done;
  (match label with Some f -> f () | None -> ());
  Network.commit t.net t.master;
  for w = 0 to shards t - 1 do
    read ~shard:w t.master
  done;
  if t.pr.on then observe_rounds t.pr ~t0 ~rounds:1

(* Silence shard [w]'s out-directions, then let it write them. *)
let write_words b ~shard =
  Array.iter (fun dir -> Network.Block.silence b.w_out ~dir) b.w_outs.(shard);
  b.w_write ~shard b.w_out

(* Per shard, the directions it sends on (its parties are the sources)
   and receives on (the destinations), each in ascending order. *)
let owned t =
  match t.owned with
  | Some o -> o
  | None ->
      let nshards = shards t in
      let outs = Array.make nshards [] and ins = Array.make nshards [] in
      let two_m = 2 * Topology.Graph.m (Network.graph t.net) in
      for dir = two_m - 1 downto 0 do
        let src, dst = Network.link_ends t.net ~dir in
        let ws = owner t src and wd = owner t dst in
        outs.(ws) <- dir :: outs.(ws);
        ins.(wd) <- dir :: ins.(wd)
      done;
      let o = (Array.map Array.of_list outs, Array.map Array.of_list ins) in
      t.owned <- Some o;
      o

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

(* A whole block at d = 0, where no round can lag: every shard writes,
   one commit, every shard reads. *)
let whole t ?label b =
  t.rounds_run <- t.rounds_run + b.w_rounds;
  let t0 = if t.pr.on then Unix.gettimeofday () else 0. in
  for w = 0 to shards t - 1 do
    write_words b ~shard:w
  done;
  (match label with Some f -> f () | None -> ());
  Network.commit_block t.net ~rounds:b.w_rounds ~out:b.w_out ~inw:b.w_in;
  for w = 0 to shards t - 1 do
    b.w_read ~shard:w b.w_in
  done;
  if t.pr.on then observe_rounds t.pr ~t0 ~rounds:b.w_rounds

(* Under keyed jitter (d > 0) drift is per round, so the block runs as
   [rounds] ordinary rounds: round [r] sends bit [r] of each out-word
   and records each delivered symbol into the in-words; the first
   round's write fills the out-words and the last round's read hands the
   in-words over. *)
let looped t ?label b =
  let last = b.w_rounds - 1 in
  for r = 0 to last do
    round t
      ?label:(if r = 0 then label else None)
      ~write:(fun ~shard buf ->
        if r = 0 then write_words b ~shard;
        Array.iter
          (fun dir ->
            match Network.Block.get b.w_out ~dir ~round:r with
            | Some bit -> Active.send buf ~dir bit
            | None -> ())
          b.w_outs.(shard))
      ~read:(fun ~shard master ->
        Array.iter
          (fun dir ->
            if r = 0 then Network.Block.silence b.w_in ~dir;
            match Active.get master ~dir with
            | Some bit -> Network.Block.send b.w_in ~dir ~round:r bit
            | None -> ())
          b.w_ins.(shard);
        if r = last then b.w_read ~shard b.w_in)
      ()
  done

let block t ?label ~width ~rounds ~write ~read () =
  if rounds < 1 then invalid_arg "Live.Exec.block: rounds < 1";
  if width < 1 || width >= Sys.int_size then invalid_arg "Live.Exec.block: width out of range";
  let fields = (rounds + width - 1) / width in
  let out, inw = block_buffers t ~width ~fields in
  let outs, ins = owned t in
  let b =
    { w_rounds = rounds; w_out = out; w_in = inw; w_write = write; w_read = read; w_outs = outs;
      w_ins = ins }
  in
  if t.d > 0 then looped t ?label b else whole t ?label b

let slice t f =
  for w = 0 to shards t - 1 do
    f w
  done

let join (_ : t) = ()

let shutdown t =
  if not t.shut then begin
    t.shut <- true;
    Metrics.Registry.add t.pr.rounds_c t.rounds_run
  end
