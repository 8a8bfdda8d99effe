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
     deletions/insertions through the network's jitter hooks).

   - the parallel engine spawns one domain per shard.  Shards step
     their rounds concurrently through a ring of d+1 per-shard buffers
     and a ring of d+1 committed master buffers, synchronised by a
     per-(shard, slot) atomic state word and a committer election; a
     shard may run up to d rounds ahead of the slowest commit.  Under
     d = 0 every commit requires every shard's seal, which is a full
     barrier per round — the differential suite checks this case
     byte-identical to lockstep.

   Ragged noise accounting (d > 0, parallel): a shard whose round-r
   buffer misses commit r has its symbols either retired by the owner
   (deletion, tallied in an Atomic and folded into [stats.stalled] at
   the next join) or discovered still sealed at commit r + d + 1 and
   surfaced there (a deletion from r plus an insertion at the surfacing
   round, booked per-dir through [Network.note_stalled] /
   [note_injected] by the committer, which holds the network
   exclusively).  This is precisely the insertion/deletion channel of
   the paper, produced by genuine scheduling jitter.

   Memory model notes (the protocol in one paragraph): the job log is
   single-producer (leader) multi-consumer, published by a release
   store of [n_jobs] and read under an acquire load, so job payloads
   need no further fencing.  A shard's round buffer is published by the
   release store of its state word to [Sealed]; a committer acquires it
   via the CAS to [Merging].  The committed master buffer and every
   plain mutable field of the network are published by the release
   store of [committed] and acquired by the waiters' load; committers
   hand the network to each other through the [claim] CAS chain.  The
   join barrier's sense flip orders everything before it against
   everything after. *)

module Network = Netsim.Network
module Active = Netsim.Network.Active

(* Raised inside a worker when a peer domain has been poisoned by an
   exception: unwind quietly, the leader re-raises the original. *)
exception Bail

(* ------------------------------------------------------------------ *)
(* Per-(shard, slot) state words: [((round + 2) lsl 2) lor tag].       *)

let t_sealed = 0
let t_writing = 1
let t_consumed = 2
let t_merging = 3
let pack r tag = ((r + 2) lsl 2) lor tag
let tag_of v = v land 3
let round_of v = (v lsr 2) - 2

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
  job : int; (* index of the Round job in the job log, for trace ticks *)
  words : words option; (* a whole block committed as this one round job *)
}

type job =
  | Round of int  (* index into the rounds log *)
  | Slice of (int -> unit)
  | Join
  | Quit

let chunk_bits = 10
let chunk_size = 1 lsl chunk_bits
let max_chunks = 4096

(* Engine probes.  Klass discipline: [live.rounds] and the keyed-jitter
   lag distribution are pure functions of the keyed execution (Exact);
   per-round wall latency and the parallel engine's commit-time shard
   spread depend on real scheduling (Timed).  Both engines register
   all four names so the exact snapshot section is shard-invariant.
   [live.rounds] is not probed per round: [shutdown] books it once
   from [rounds_run]. *)
type probes = {
  on : bool;
  rounds_c : Metrics.Registry.counter;
  lag_h : Metrics.Registry.hist; (* serial keyed lag draws (lag >= 1) *)
  round_ns : Metrics.Registry.hist; (* per-shard round latency, ns *)
  drift_h : Metrics.Registry.hist; (* wrote-spread seen by each commit *)
}

let make_probes reg =
  let open Metrics.Registry in
  {
    on = is_enabled reg;
    rounds_c = counter reg "live.rounds";
    lag_h = hist reg "live.ragged.lag";
    round_ns = hist reg ~klass:Timed "live.round_ns";
    drift_h = hist reg ~klass:Timed "live.drift";
  }

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
  d : int;
  (* shard -> slot -> buffer/state; slot = round mod (d + 1) *)
  bufs : Active.t array array;
  state : int Atomic.t array array;
  wrote : int Atomic.t array;
  committed : int Atomic.t;
  claim : bool Atomic.t;
  masters : Active.t array;
  jobs : job array array;
  n_jobs : int Atomic.t;
  rjobs : round_job array array;
  n_rounds : int Atomic.t;
  mutable jpos : int; (* leader-side append cursors *)
  mutable rpos : int;
  join_bar : Barrier.t;
  poison : exn option Atomic.t;
  dropped : int Atomic.t; (* owner-retired symbols, folded at joins *)
  surfaced : int Atomic.t; (* stale symbols delivered late *)
  stale_del : int Atomic.t; (* deletions booked by stale surfacing *)
  mutable folded : int; (* drops already folded into stats.stalled *)
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
(* Shared helpers                                                      *)

let poisoned p = Option.is_some (Atomic.get p.poison)

let set_poison p e =
  ignore (Atomic.compare_and_set p.poison None (Some e) : bool)

let check_poison p = match Atomic.get p.poison with Some e -> raise e | None -> ()

(* Worker-side: spin until [cond], bail if any domain was poisoned. *)
let spin_or_bail p cond =
  if not (Barrier.spin_until ~giveup:(fun () -> poisoned p) ~yield:p.yield cond) then
    raise Bail

let get_job p i = p.jobs.(i lsr chunk_bits).(i land (chunk_size - 1))
let get_rjob p i = p.rjobs.(i lsr chunk_bits).(i land (chunk_size - 1))

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

let append_rjob p rj =
  let i = p.rpos in
  if i lsr chunk_bits >= max_chunks then
    failwith "Live.Exec: round log full (4M rounds without a join)";
  let c = i lsr chunk_bits and o = i land (chunk_size - 1) in
  if Array.length p.rjobs.(c) = 0 then
    p.rjobs.(c) <-
      Array.make chunk_size
        {
          write = (fun ~shard:_ _ -> ());
          read = (fun ~shard:_ _ -> ());
          label = None;
          job = 0;
          words = None;
        };
  p.rjobs.(c).(o) <- rj;
  p.rpos <- i + 1;
  Atomic.set p.n_rounds p.rpos

(* After a join every entry below the leader cursors has been consumed
   by every worker (they all passed the Join job) and every round has
   been committed, so whole chunks strictly below the current one can
   be dropped — the logs hold closures capturing party state, and
   without this a long run retains every round it ever issued. *)
let gc_logs p =
  for c = 0 to (p.jpos lsr chunk_bits) - 1 do
    if Array.length p.jobs.(c) > 0 then p.jobs.(c) <- [||]
  done;
  for c = 0 to (p.rpos lsr chunk_bits) - 1 do
    if Array.length p.rjobs.(c) > 0 then p.rjobs.(c) <- [||]
  done

(* ------------------------------------------------------------------ *)
(* Commit protocol                                                     *)

(* Commit c is allowed once some shard has sealed round c (there is
   something to deliver) and no shard is more than d rounds behind it:
   under d = 0 this demands every shard's seal — a full per-round
   barrier — so raggedness can only develop from genuine speed skew
   within the allowed window, never from an eager committer. *)
let rule_ok p c =
  let mx = ref min_int and mn = ref max_int in
  for w = 0 to p.nshards - 1 do
    let v = Atomic.get p.wrote.(w) in
    if v > !mx then mx := v;
    if v < !mn then mn := v
  done;
  !mx >= c && !mn >= c - p.d

(* Runs with the committer election won: merge every shard's sealed
   slot-c buffer into the master, let the network transform the round,
   publish.  The claim chain hands the network's plain mutable state
   from committer to committer; [Active.sort] before publication makes
   subsequent concurrent reader iteration mutation-free. *)
let do_commit p ~w c =
  let slot = c mod (p.d + 1) in
  let master = p.masters.(slot) in
  if p.pr.on then begin
    (* Ragged drift as this commit sees it: spread between the fastest
       and slowest shard's last sealed round. *)
    let mx = ref min_int and mn = ref max_int in
    for w = 0 to p.nshards - 1 do
      let v = Atomic.get p.wrote.(w) in
      if v > !mx then mx := v;
      if v < !mn then mn := v
    done;
    Metrics.Registry.observe p.pr.drift_h (!mx - !mn)
  end;
  Active.begin_round master;
  (* The job's label (phase marking) must be visible to the network
     transform of this round; [n_rounds] was released before any shard
     could seal round c, so this acquire cannot block. *)
  while Atomic.get p.n_rounds <= c do
    Domain.cpu_relax ()
  done;
  let rj = get_rjob p c in
  if Trace.Sharded.is_enabled p.tr then begin
    (* Route net.* emissions of this commit to the committer's own ring
       (single writer: the claim chain serializes committers and hands
       the network over release/acquire, carrying the sink swap with
       it).  The whole commit is one contiguous block at tick 4j+2, so
       which ring physically holds it cannot affect the merged order. *)
    let r = Trace.Sharded.ring p.tr w in
    Trace.Sink.set_tick r ((4 * rj.job) + 2);
    Network.set_trace p.net r
  end;
  (match rj.label with Some f -> f () | None -> ());
  for w = 0 to p.nshards - 1 do
    let st = p.state.(w).(slot) in
    let cur = Atomic.get st in
    if tag_of cur = t_sealed then begin
      let r = round_of cur in
      if Atomic.compare_and_set st cur (pack r t_merging) then begin
        let buf = p.bufs.(w).(slot) in
        if r = c then Active.iter buf (fun ~dir bit -> Active.send master ~dir bit)
        else begin
          (* Stale seal that slipped past commit r (sealed while that
             committer was scanning): the symbols were deleted from
             round r and now surface in round c — book both sides. *)
          Active.iter buf (fun ~dir bit ->
              Network.note_stalled p.net ~dir;
              Network.note_injected p.net ~dir;
              ignore (Atomic.fetch_and_add p.stale_del 1 : int);
              ignore (Atomic.fetch_and_add p.surfaced 1 : int);
              Active.send master ~dir bit)
        end;
        Atomic.set st (pack c t_consumed)
      end
      (* CAS failure: the owner retired it as a late seal — skip. *)
    end
    (* Writing: the shard is mid-write of round c; its symbols will be
       handled by the owner's late-seal path.  Consumed: the shard has
       not reached round c yet — nothing to deliver. *)
  done;
  (match rj.words with
  | None -> Network.commit p.net master
  | Some b -> Network.commit_block p.net ~rounds:b.w_rounds ~out:b.w_out ~inw:b.w_in);
  Active.sort master;
  Atomic.set p.committed c

(* One committer at a time; returns whether a round was committed. *)
let try_advance p ~w =
  let c = Atomic.get p.committed + 1 in
  if rule_ok p c && Atomic.compare_and_set p.claim false true then
    Fun.protect
      ~finally:(fun () -> Atomic.set p.claim false)
      (fun () ->
        let c = Atomic.get p.committed + 1 in
        if rule_ok p c then begin
          do_commit p ~w c;
          true
        end
        else false)
  else false

(* Wait until round [q] is committed, actively participating in the
   committer election the whole time (the last sealer of a committable
   round is often the one that commits it). *)
let wait_commit p ~w q =
  (* Oversubscribed: the committer we are waiting on shares our core, so
     long electioneering spins only delay it — probe briefly, sleep
     short (same rationale as [Barrier.set_yield]). *)
  let mask = if p.yield then 63 else 4095 in
  let sleep0 = if p.yield then 1e-6 else 2e-5 in
  let cap = if p.yield then 1e-4 else 1e-3 in
  let laps = ref 0 and sleep = ref sleep0 in
  while Atomic.get p.committed < q do
    if poisoned p then raise Bail;
    if try_advance p ~w then begin
      laps := 0;
      sleep := sleep0
    end
    else begin
      incr laps;
      if !laps land mask = 0 then begin
        Unix.sleepf !sleep;
        sleep := Float.min (!sleep *. 2.) cap
      end
      else Domain.cpu_relax ()
    end
  done

(* ------------------------------------------------------------------ *)
(* Worker domains                                                      *)

let process_round p w ~job q =
  let t0 = if p.pr.on then Unix.gettimeofday () else 0. in
  let rng = ring_of p w in
  let slot = q mod (p.d + 1) in
  let st = p.state.(w).(slot) in
  let buf = p.bufs.(w).(slot) in
  (* Claim the ring slot.  Its previous occupant (round q - d - 1) is
     normally consumed; if it is still sealed it was never delivered —
     retire it as dropped.  A committer may be mid-merge on it. *)
  let rec claim () =
    if poisoned p then raise Bail;
    let cur = Atomic.get st in
    match tag_of cur with
    | 2 (* consumed *) ->
        if not (Atomic.compare_and_set st cur (pack q t_writing)) then claim ()
    | 0 (* sealed, never consumed *) ->
        if Atomic.compare_and_set st cur (pack q t_writing) then
          ignore (Atomic.fetch_and_add p.dropped (Active.count buf) : int)
        else claim ()
    | 3 (* merging: committer is reading it *) ->
        Domain.cpu_relax ();
        claim ()
    | _ -> assert false (* writing: only the owner writes this tag *)
  in
  claim ();
  let rj = get_rjob p q in
  Trace.Sink.set_tick rng ((4 * job) + 1);
  Active.begin_round buf;
  (match rj.words with None -> rj.write ~shard:w buf | Some b -> write_words b ~shard:w);
  let sealed = pack q t_sealed in
  Atomic.set st sealed;
  Atomic.set p.wrote.(w) q;
  if Atomic.get p.committed >= q then begin
    (* Sealed after commit q already passed this slot: the round's
       symbols were deleted by raggedness.  (No commit of a later
       congruent round can be in flight — it would need this shard's
       wrote >= q + 1 — so the CAS only races the owner against
       nobody; keep it anyway for symmetry with the stale path.) *)
    if Atomic.compare_and_set st sealed (pack q t_consumed) then
      ignore (Atomic.fetch_and_add p.dropped (Active.count buf) : int)
  end
  else wait_commit p ~w q;
  (* The master for round q is intact: overwriting it (commit q+d+1)
     would need every shard's wrote >= q + 1, and ours is still q. *)
  Trace.Sink.set_tick rng ((4 * job) + 3);
  match rj.words with
  | None ->
      rj.read ~shard:w p.masters.(slot);
      if p.pr.on then observe_rounds p.pr ~t0 ~rounds:1
  | Some b ->
      b.w_read ~shard:w b.w_in;
      if p.pr.on then observe_rounds p.pr ~t0 ~rounds:b.w_rounds

let worker p w =
  let cursor = ref 0 in
  let running = ref true in
  while !running do
    if poisoned p then running := false
    else begin
      (try spin_or_bail p (fun () -> Atomic.get p.n_jobs > !cursor) with Bail -> running := false);
      if !running then begin
        let j = !cursor in
        let job = get_job p j in
        incr cursor;
        try
          match job with
          | Quit -> running := false
          | Join -> if not (Barrier.await ~giveup:(fun () -> poisoned p) p.join_bar) then running := false
          | Slice f ->
              Trace.Sink.set_tick (ring_of p w) ((4 * j) + 1);
              f w
          | Round q -> process_round p w ~job:j q
        with
        | Bail -> running := false
        | e ->
            set_poison p e;
            running := false
      end
    end
  done

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
  if config.force_serial || nshards = 1 then begin
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
    let p =
      {
        net;
        nshards;
        d;
        bufs = Array.init nshards (fun _ -> Array.init (d + 1) (fun _ -> Network.active net));
        state =
          Array.init nshards (fun _ ->
              Array.init (d + 1) (fun _ -> Atomic.make (pack (-1) t_consumed)));
        wrote = Array.init nshards (fun _ -> Atomic.make (-1));
        committed = Atomic.make (-1);
        claim = Atomic.make false;
        masters = Array.init (d + 1) (fun _ -> Network.active net);
        jobs = Array.make max_chunks [||];
        n_jobs = Atomic.make 0;
        rjobs = Array.make max_chunks [||];
        n_rounds = Atomic.make 0;
        jpos = 0;
        rpos = 0;
        join_bar = Barrier.create (nshards + 1);
        poison = Atomic.make None;
        dropped = Atomic.make 0;
        surfaced = Atomic.make 0;
        stale_del = Atomic.make 0;
        folded = 0;
        domains = [];
        tr = Trace.Sharded.disabled;
        (* Leader + workers all burn CPU; when they outnumber the cores
           the runtime sees, waiting must yield the core instead of
           spinning on it (see Barrier.set_yield). *)
        yield = nshards + 1 > Domain.recommended_domain_count ();
        pr;
      }
    in
    Barrier.set_metrics p.join_bar metrics;
    Barrier.set_yield p.join_bar p.yield;
    p.domains <- List.init nshards (fun w -> Domain.spawn (fun () -> worker p w));
    Logging.Live_log.debug (fun m ->
        m "parallel engine: %d worker domain(s), d=%d, partition %a" nshards d Shard.pp sh);
    { engine = Par p; sh; rounds_run = 0; shut = false; blocks = None; owned = None }
  end

let shards t = Shard.shards t.sh
let bounds t ~shard = Shard.range t.sh shard
let owner t party = Shard.owner t.sh party
let is_serial t = match t.engine with Serial _ -> true | Par _ -> false
let rounds_run t = t.rounds_run

let probes_of t = match t.engine with Serial sr -> sr.s_pr | Par p -> p.pr

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
      append_rjob p { write; read; label; job = p.jpos; words = None };
      append_job p (Round (p.rpos - 1))

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

(* Under ragged synchrony (d > 0) drift is per round, so the block runs
   as [rounds] ordinary rounds: round [r] sends bit [r] of each
   out-word and records each delivered symbol into the in-words; the
   first round's write fills the out-words and the last round's read
   hands the in-words over. *)
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
  match t.engine with
  | Serial sr when sr.s_d = 0 ->
      t.rounds_run <- t.rounds_run + rounds;
      serial_block t sr ?label b
  | Par p when p.d = 0 ->
      check_poison p;
      t.rounds_run <- t.rounds_run + rounds;
      append_rjob p
        {
          write = (fun ~shard:_ _ -> ());
          read = (fun ~shard:_ _ -> ());
          label;
          job = p.jpos;
          words = Some b;
        };
      append_job p (Round (p.rpos - 1))
  | Serial _ | Par _ -> looped t ?label b

let slice t f =
  match t.engine with
  | Serial _ ->
      for w = 0 to Shard.shards t.sh - 1 do
        f w
      done
  | Par p ->
      check_poison p;
      append_job p (Slice f)

(* Fold the drop tally into the network books while the leader holds
   the network exclusively (post-barrier, no round in flight); the
   aggregate [net.stalled] count goes to the leader ring. *)
let fold_drops p =
  let k = Atomic.exchange p.dropped 0 in
  if k > 0 then begin
    if Trace.Sharded.is_enabled p.tr then Network.set_trace p.net (Trace.Sharded.leader p.tr);
    Network.note_stalled_count p.net k;
    p.folded <- p.folded + k
  end

let join t =
  match t.engine with
  | Serial _ -> ()
  | Par p ->
      check_poison p;
      append_job p Join;
      if not (Barrier.await ~giveup:(fun () -> poisoned p) p.join_bar) then check_poison p;
      check_poison p;
      fold_drops p;
      gc_logs p

let jitter_dropped t =
  match t.engine with
  | Serial sr -> sr.s_delayed
  | Par p -> p.folded + Atomic.get p.dropped + Atomic.get p.stale_del

let jitter_surfaced t =
  match t.engine with
  | Serial sr -> sr.s_surfaced
  | Par p -> Atomic.get p.surfaced

let shutdown t =
  if not t.shut then begin
    t.shut <- true;
    Metrics.Registry.add (probes_of t).rounds_c t.rounds_run;
    match t.engine with
    | Serial _ -> ()
    | Par p ->
        (* On the clean path workers are idle waiting for a job; on the
           poisoned path they have exited (or will, at the next poison
           check in their spins).  Either way Quit + join terminates. *)
        (try append_job p Quit with _ -> ());
        List.iter Domain.join p.domains;
        (* Sealed buffers never consumed (a tail round that missed its
           commit with no later round to surface it) are deletions. *)
        for w = 0 to p.nshards - 1 do
          for slot = 0 to p.d do
            let cur = Atomic.get p.state.(w).(slot) in
            if tag_of cur = t_sealed then
              ignore (Atomic.fetch_and_add p.dropped (Active.count p.bufs.(w).(slot)) : int)
          done
        done;
        fold_drops p;
        Logging.Live_log.debug (fun m ->
            m "shutdown: %d round(s), dropped=%d surfaced=%d" t.rounds_run
              (p.folded + Atomic.get p.stale_del)
              (Atomic.get p.surfaced))
  end
