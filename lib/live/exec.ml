(* The live execution engine.  A phase driver describes each global
   round as a pair of callbacks — [write shard buf] submits the round's
   transmissions for the parties of [shard]; [read shard master]
   consumes the delivered round — plus [block]s (a run of rounds whose
   sends are all known upfront, written and read as words and committed
   by one [Network.commit_block]), occasional [slice] jobs (pure
   per-shard state work, no network) and [join]s (full barrier, after
   which the leader may touch any state).  The engine decides how those
   callbacks actually run:

   - the serial engine executes everything inline on the calling domain
     in shard order.  With d = 0 it writes straight into one master
     buffer and is *exactly* the historical lockstep loop; with d > 0
     it simulates raggedness deterministically (a keyed RNG delays a
     shard's whole round by a lag in [1..d], booking the
     deletions/insertions through the network's jitter hooks).  Ragged
     synchrony runs here at every shard count: it is the one ragged
     model, and it is exactly reproducible.

   - the parallel engine spawns one domain per shard and runs lockstep
     rounds (d = 0).  A round is one barrier: every shard writes its own
     buffer, arrives at the round barrier, and the last arriver commits
     (merges every shard's buffer into the one master, runs the network
     transform) before it releases the others, who then read.  The
     differential suite checks this byte-identical to lockstep.

   Memory model notes: the job log is single-producer (leader)
   multi-consumer, published by a release store of [n_jobs] and read
   under an acquire load, so job payloads need no further fencing.
   Every shard's buffer writes precede its arrival at the round
   barrier, which the last arriver observes; the committed master and
   every plain mutable field of the network are published by the
   barrier's sense flip.  The join barrier orders everything before it
   against everything after. *)

module Network = Netsim.Network
module Active = Netsim.Network.Active

(* Raised inside a worker when a peer domain has been poisoned by an
   exception: unwind quietly, the leader re-raises the original. *)
exception Bail

(* ------------------------------------------------------------------ *)
(* Job log: SPMD broadcast — every worker executes every job against
   its own shard.  Chunked so appends never move existing entries.     *)

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

type round_job = {
  write : shard:int -> Active.t -> unit;
  read : shard:int -> Active.t -> unit;
  label : (unit -> unit) option;
  words : words option; (* a whole block committed as this one round job *)
}

type job =
  | Round of round_job
  | Slice of (int -> unit)
  | Join
  | Quit

let chunk_bits = 10
let chunk_size = 1 lsl chunk_bits
let max_chunks = 4096

(* Engine probes.  Klass discipline: [live.rounds] and the keyed-jitter
   lag distribution are pure functions of the keyed execution (Exact);
   per-round wall latency depends on real scheduling (Timed).  Both
   engines register the same names so the exact snapshot section is
   shard-invariant; [live.drift] stays registered so snapshot name sets
   do not move, but nothing observes it: lockstep rounds have no shard
   spread.  [live.rounds] is not probed per round: [shutdown] books it
   once. *)
type probes = {
  on : bool;
  rounds_c : Metrics.Registry.counter;
  lag_h : Metrics.Registry.hist; (* serial keyed lag draws (lag >= 1) *)
  round_ns : Metrics.Registry.hist; (* per-shard round latency, ns *)
}

let make_probes reg =
  let open Metrics.Registry in
  let pr =
    {
      on = is_enabled reg;
      rounds_c = counter reg "live.rounds";
      lag_h = hist reg "live.ragged.lag";
      round_ns = hist reg ~klass:Timed "live.round_ns";
    }
  in
  ignore (hist reg ~klass:Timed "live.drift" : hist);
  pr

(* Book a job started at [t0] as [rounds] rounds of [live.round_ns]: a
   block's latency is spread evenly over its rounds, so the histogram
   stays a distribution of per-round latencies. *)
let observe_rounds pr ~t0 ~rounds =
  let ns = int_of_float ((Unix.gettimeofday () -. t0) *. 1e9) / rounds in
  for _ = 1 to rounds do
    Metrics.Registry.observe pr.round_ns ns
  done

type par = {
  net : Network.t;
  nshards : int;
  bufs : Active.t array; (* shard -> its round buffer *)
  master : Active.t;
  round_bar : Barrier.t; (* the shards; the last arriver commits *)
  mutable committed : int; (* rounds whose commit began; committer-side *)
  jobs : job array array;
  n_jobs : int Atomic.t;
  mutable jpos : int; (* leader-side append cursor *)
  join_bar : Barrier.t; (* the shards and the leader *)
  poison : exn option Atomic.t;
  mutable domains : unit Domain.t list;
  mutable tr : Trace.Sharded.t; (* per-domain rings; see [set_trace] *)
  yield : bool; (* domains outnumber cores: wait by sleeping, not spinning *)
  pr : probes;
}

type serial = {
  s_net : Network.t;
  s_d : int;
  master : Active.t;
  scratch : Active.t;
  (* slot -> (dir, bit) list of delayed symbols due to surface there *)
  pending : (int * bool) list array;
  jitter_rate : float;
  jitter_key : int64;
  mutable q : int;
  mutable s_delayed : int;
  mutable s_surfaced : int;
  s_pr : probes;
}

type engine = Serial of serial | Par of par

type t = {
  engine : engine;
  sh : Shard.t;
  mutable rounds_run : int;
  mutable shut : bool;
  (* [block]'s word buffers (out, in), kept while the shape repeats, and
     the per-shard (out, in) direction lists, built on first use. *)
  mutable blocks : (Network.Block.t * Network.Block.t) option;
  mutable owned : (int array array * int array array) option;
}

(* Silence shard [w]'s out-directions, then let it write them. *)
let write_words b ~shard =
  Array.iter (fun dir -> Network.Block.silence b.w_out ~dir) b.w_outs.(shard);
  b.w_write ~shard b.w_out

(* ------------------------------------------------------------------ *)
(* Parallel engine                                                     *)

let poisoned p = Option.is_some (Atomic.get p.poison)

let set_poison p e =
  ignore (Atomic.compare_and_set p.poison None (Some e) : bool)

let check_poison p = match Atomic.get p.poison with Some e -> raise e | None -> ()

let get_job p i = p.jobs.(i lsr chunk_bits).(i land (chunk_size - 1))

(* Trace ticks: job index j (count of Round/Slice/Join/Quit appends —
   identical across the serial and parallel engines for the same
   driver) owns merge positions 4j (leader-side events while job j is
   the next to issue), 4j+1 (shard writes and slice work), 4j+2
   (network commit) and 4j+3 (shard reads).  Each domain stamps only
   its own ring; [Trace.Merge] sorts by (tick, shard, seq). *)
let[@inline] ring_of p w =
  if Trace.Sharded.is_enabled p.tr then Trace.Sharded.ring p.tr w
  else Trace.Sink.disabled

let append_job p j =
  let i = p.jpos in
  if i lsr chunk_bits >= max_chunks then
    failwith "Live.Exec: job log full (4M jobs without a join)";
  let c = i lsr chunk_bits and o = i land (chunk_size - 1) in
  if Array.length p.jobs.(c) = 0 then p.jobs.(c) <- Array.make chunk_size Quit;
  p.jobs.(c).(o) <- j;
  p.jpos <- i + 1;
  Atomic.set p.n_jobs p.jpos;
  Trace.Sink.set_tick (Trace.Sharded.leader p.tr) (4 * p.jpos)

(* After a join every entry below the leader cursor has been consumed by
   every worker (they all passed the Join job), so whole chunks strictly
   below the current one can be dropped — the log holds closures
   capturing party state, and without this a long run retains every
   round it ever issued. *)
let gc_log p =
  for c = 0 to (p.jpos lsr chunk_bits) - 1 do
    if Array.length p.jobs.(c) > 0 then p.jobs.(c) <- [||]
  done

(* Round job [job]'s commit, run by the last shard [w] to arrive at the
   round barrier while every other shard still waits there: the network
   and the master are the committer's alone.  [Active.sort] before the
   release makes the shards' concurrent reads of the master
   mutation-free. *)
let commit p ~w ~job rj =
  if Trace.Sharded.is_enabled p.tr then begin
    (* Route net.* emissions of this commit to the committer's own ring.
       The whole commit is one contiguous block at tick 4j+2, so which
       ring physically holds it cannot affect the merged order. *)
    let r = Trace.Sharded.ring p.tr w in
    Trace.Sink.set_tick r ((4 * job) + 2);
    Network.set_trace p.net r
  end;
  (* Counted before the label, as the serial engine counts a round
     before running it. *)
  p.committed <- (p.committed + match rj.words with None -> 1 | Some b -> b.w_rounds);
  (match rj.label with Some f -> f () | None -> ());
  match rj.words with
  | None ->
      Active.begin_round p.master;
      let send ~dir bit = Active.send p.master ~dir bit in
      Array.iter (fun buf -> Active.iter buf send) p.bufs;
      Network.commit p.net p.master;
      Active.sort p.master
  | Some b -> Network.commit_block p.net ~rounds:b.w_rounds ~out:b.w_out ~inw:b.w_in

let process_round p w ~giveup ~job rj =
  let t0 = if p.pr.on then Unix.gettimeofday () else 0. in
  let rng = ring_of p w in
  Trace.Sink.set_tick rng ((4 * job) + 1);
  (match rj.words with
  | None ->
      let buf = p.bufs.(w) in
      Active.begin_round buf;
      rj.write ~shard:w buf
  | Some b -> write_words b ~shard:w);
  if not (Barrier.await ~giveup ~last:(fun () -> commit p ~w ~job rj) p.round_bar) then
    raise Bail;
  Trace.Sink.set_tick rng ((4 * job) + 3);
  match rj.words with
  | None ->
      rj.read ~shard:w p.master;
      if p.pr.on then observe_rounds p.pr ~t0 ~rounds:1
  | Some b ->
      b.w_read ~shard:w b.w_in;
      if p.pr.on then observe_rounds p.pr ~t0 ~rounds:b.w_rounds

(* Execute jobs from index [j] on until Quit, poison or a peer's poison. *)
let worker p w =
  let giveup () = poisoned p in
  let rec from j =
    if
      Barrier.spin_until ~giveup ~yield:p.yield (fun () -> Atomic.get p.n_jobs > j)
      && not (poisoned p)
    then
      match
        match get_job p j with
        | Quit -> false
        | Join -> Barrier.await ~giveup p.join_bar || raise Bail
        | Slice f ->
            Trace.Sink.set_tick (ring_of p w) ((4 * j) + 1);
            f w;
            true
        | Round rj ->
            process_round p w ~giveup ~job:j rj;
            true
      with
      | true -> from (j + 1)
      | false | (exception Bail) -> ()
      | exception e -> set_poison p e
  in
  from 0

(* ------------------------------------------------------------------ *)
(* Serial engine                                                       *)

(* Deterministic jitter: whether shard [w]'s round [q] lags, and by how
   much, is a pure function of the jitter key — reruns are identical. *)
let draw_lag sr w =
  if sr.s_d = 0 || sr.jitter_rate <= 0. then 0
  else begin
    let u = Util.Rng.at ~seed:sr.jitter_key ((sr.q * 8192) + w) in
    let frac =
      Int64.to_float (Int64.logand u 0x1FFFFFFFFFFFFFL) /. 9007199254740992.0
    in
    if frac >= sr.jitter_rate then 0
    else 1 + (Int64.to_int (Int64.shift_right_logical u 53) mod sr.s_d)
  end

let serial_round t sr ?label ~write ~read () =
  let nshards = Shard.shards t.sh in
  let t0 = if sr.s_pr.on then Unix.gettimeofday () else 0. in
  Active.begin_round sr.master;
  if sr.s_d > 0 then begin
    (* Delayed symbols due this round surface before fresh traffic, so
       a fresh symbol on the same link wins (substitution semantics). *)
    let slot = sr.q mod (sr.s_d + 1) in
    List.iter
      (fun (dir, bit) ->
        Active.send sr.master ~dir bit;
        Network.note_injected sr.s_net ~dir;
        sr.s_surfaced <- sr.s_surfaced + 1)
      (List.rev sr.pending.(slot));
    sr.pending.(slot) <- []
  end;
  for w = 0 to nshards - 1 do
    let lag = draw_lag sr w in
    if lag = 0 then write ~shard:w sr.master
    else begin
      (* Keyed lag draw: deterministic, so the distribution is Exact. *)
      if sr.s_pr.on then Metrics.Registry.observe sr.s_pr.lag_h lag;
      Active.begin_round sr.scratch;
      write ~shard:w sr.scratch;
      let tgt = (sr.q + lag) mod (sr.s_d + 1) in
      Active.iter sr.scratch (fun ~dir bit ->
          Network.note_stalled sr.s_net ~dir;
          sr.s_delayed <- sr.s_delayed + 1;
          sr.pending.(tgt) <- (dir, bit) :: sr.pending.(tgt))
    end
  done;
  (match label with Some f -> f () | None -> ());
  Network.commit sr.s_net sr.master;
  for w = 0 to nshards - 1 do
    read ~shard:w sr.master
  done;
  sr.q <- sr.q + 1;
  if sr.s_pr.on then observe_rounds sr.s_pr ~t0 ~rounds:1

(* A whole block inline: every shard writes, one commit, every shard
   reads — the serial engine at d = 0, where no round can lag. *)
let serial_block t sr ?label b =
  let t0 = if sr.s_pr.on then Unix.gettimeofday () else 0. in
  for w = 0 to Shard.shards t.sh - 1 do
    write_words b ~shard:w
  done;
  (match label with Some f -> f () | None -> ());
  Network.commit_block sr.s_net ~rounds:b.w_rounds ~out:b.w_out ~inw:b.w_in;
  for w = 0 to Shard.shards t.sh - 1 do
    b.w_read ~shard:w b.w_in
  done;
  sr.q <- sr.q + b.w_rounds;
  if sr.s_pr.on then observe_rounds sr.s_pr ~t0 ~rounds:b.w_rounds

(* ------------------------------------------------------------------ *)
(* API                                                                 *)

let create ~net ~(config : Config.t) ?(metrics = Metrics.Registry.disabled) ~weights () =
  let sh = Shard.partition ~weights ~shards:config.shards in
  let nshards = Shard.shards sh in
  let d = config.ragged_d in
  let pr = make_probes metrics in
  if config.force_serial || nshards = 1 || d > 0 then begin
    let sr =
      {
        s_net = net;
        s_d = d;
        master = Network.active net;
        scratch = Network.active net;
        pending = Array.make (d + 1) [];
        jitter_rate = config.jitter_rate;
        jitter_key = config.jitter_key;
        q = 0;
        s_delayed = 0;
        s_surfaced = 0;
        s_pr = pr;
      }
    in
    Logging.Live_log.debug (fun m ->
        m "serial engine: %d shard(s), d=%d, partition %a" nshards d Shard.pp sh);
    { engine = Serial sr; sh; rounds_run = 0; shut = false; blocks = None; owned = None }
  end
  else begin
    (* Leader + workers all burn CPU; when they outnumber the cores the
       runtime sees, waiting must yield the core instead of spinning on
       it (see Barrier.set_yield). *)
    let yield = nshards + 1 > Domain.recommended_domain_count () in
    let barrier parties =
      let b = Barrier.create parties in
      Barrier.set_yield b yield;
      b
    in
    let p =
      {
        net;
        nshards;
        bufs = Array.init nshards (fun _ -> Network.active net);
        master = Network.active net;
        round_bar = barrier nshards;
        committed = 0;
        jobs = Array.make max_chunks [||];
        n_jobs = Atomic.make 0;
        jpos = 0;
        join_bar = barrier (nshards + 1);
        poison = Atomic.make None;
        domains = [];
        tr = Trace.Sharded.disabled;
        yield;
        pr;
      }
    in
    Barrier.set_metrics p.join_bar metrics;
    p.domains <- List.init nshards (fun w -> Domain.spawn (fun () -> worker p w));
    Logging.Live_log.debug (fun m ->
        m "parallel engine: %d worker domain(s), partition %a" nshards Shard.pp sh);
    { engine = Par p; sh; rounds_run = 0; shut = false; blocks = None; owned = None }
  end

let shards t = Shard.shards t.sh
let bounds t ~shard = Shard.range t.sh shard
let owner t party = Shard.owner t.sh party
let is_serial t = match t.engine with Serial _ -> true | Par _ -> false
let rounds_run t = t.rounds_run

let set_trace t tr =
  match t.engine with
  | Serial _ -> () (* inline execution: the caller's own sink already
                      sees events in program order *)
  | Par p ->
      if Trace.Sharded.is_enabled tr && Trace.Sharded.shards tr <> p.nshards then
        invalid_arg "Live.Exec.set_trace: shard count mismatch";
      (* Published to the workers by the release store of [n_jobs] on
         the next job append; workers only read [tr] while executing
         jobs, so installation must precede the first traced job. *)
      p.tr <- tr

let round t ?label ~write ~read () =
  t.rounds_run <- t.rounds_run + 1;
  match t.engine with
  | Serial sr -> serial_round t sr ?label ~write ~read ()
  | Par p ->
      check_poison p;
      append_job p (Round { write; read; label; words = None })

let net_of t = match t.engine with Serial sr -> sr.s_net | Par p -> p.net

(* Per shard, the directions it sends on (its parties are the sources)
   and receives on (the destinations), each in ascending order. *)
let owned t =
  match t.owned with
  | Some o -> o
  | None ->
      let net = net_of t and nshards = Shard.shards t.sh in
      let outs = Array.make nshards [] and ins = Array.make nshards [] in
      let two_m = 2 * Topology.Graph.m (Network.graph net) in
      for dir = two_m - 1 downto 0 do
        let src, dst = Network.link_ends net ~dir in
        let ws = Shard.owner t.sh src and wd = Shard.owner t.sh dst in
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
      let g = Network.graph (net_of t) in
      let b = (Network.Block.create g ~width ~fields, Network.Block.create g ~width ~fields) in
      t.blocks <- Some b;
      b

(* Under keyed jitter (d > 0) drift is per round, so the block runs as
   [rounds] ordinary rounds: round [r] sends bit [r] of each out-word
   and records each delivered symbol into the in-words; the first
   round's write fills the out-words and the last round's read hands the
   in-words over. *)
let looped t sr ?label b =
  let last = b.w_rounds - 1 in
  for r = 0 to last do
    t.rounds_run <- t.rounds_run + 1;
    serial_round t sr
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
  match t.engine with
  | Serial sr when sr.s_d > 0 -> looped t sr ?label b
  | Serial sr ->
      t.rounds_run <- t.rounds_run + rounds;
      serial_block t sr ?label b
  | Par p ->
      check_poison p;
      t.rounds_run <- t.rounds_run + rounds;
      append_job p
        (Round { write = (fun ~shard:_ _ -> ()); read = (fun ~shard:_ _ -> ()); label;
                 words = Some b })

let slice t f =
  match t.engine with
  | Serial _ ->
      for w = 0 to Shard.shards t.sh - 1 do
        f w
      done
  | Par p ->
      check_poison p;
      append_job p (Slice f)

let join t =
  match t.engine with
  | Serial _ -> ()
  | Par p ->
      check_poison p;
      append_job p Join;
      ignore (Barrier.await ~giveup:(fun () -> poisoned p) p.join_bar : bool);
      check_poison p;
      gc_log p

let jitter_dropped t = match t.engine with Serial sr -> sr.s_delayed | Par _ -> 0
let jitter_surfaced t = match t.engine with Serial sr -> sr.s_surfaced | Par _ -> 0

let shutdown t =
  if not t.shut then begin
    t.shut <- true;
    match t.engine with
    | Serial sr -> Metrics.Registry.add sr.s_pr.rounds_c t.rounds_run
    | Par p ->
        (* On the clean path workers are idle waiting for a job; on the
           poisoned path they have exited (or will, at the next poison
           check in their waits).  Either way Quit + join terminates.
           After the joins every commit is visible here: book the rounds
           whose commit began — a poisoned run may have issued more. *)
        (try append_job p Quit with _ -> ());
        List.iter Domain.join p.domains;
        Metrics.Registry.add p.pr.rounds_c p.committed;
        Logging.Live_log.debug (fun m ->
            m "shutdown: %d round(s) issued, %d committed" t.rounds_run p.committed)
  end
