open Protocol
module Network = Netsim.Network
module Active = Netsim.Network.Active

let log_src = Logs.Src.create "mic.scheme" ~doc:"Coding-scheme execution"

module Log = (val Logs.src_log log_src : Logs.LOG)

type iter_stat = {
  iteration : int;
  g_star : int;
  h_star : int;
  b_star : int;
  sum_g : int;
  sum_b : int;
  links_in_mp : int;
  mp_k_total : int;
  cc : int;
  corruptions : int;
}

type result = {
  success : bool;
  outputs : int array;
  reference : int array;
  cc : int;
  cc_pi : int;
  rate_blowup : float;
  rounds : int;
  corruptions : int;
  noise_fraction : float;
  iterations_run : int;
  chunks_total : int;
  exchange_failures : int;
  chunks_rewound : int;
  trace : iter_stat list;
}

(* ---------- adversary spy (non-oblivious model, §6) ---------- *)

type edge_view = {
  tr_lo : Transcript.t;
  tr_hi : Transcript.t;
  seeds : Seeds.t;
  in_sync : bool;
}

type spy = {
  spy_chunking : Protocol.Chunking.t;
  current_iteration : unit -> int;
  edge_view : int -> edge_view;
}

(* ---------- execution configuration ---------- *)

type backend = Lockstep | Live of Live.Config.t

module Config = struct
  type t = {
    trace : bool;
    sink : Trace.Sink.t;
    metrics : Metrics.Registry.t;
    inputs : int array option;
    spy_hook : (spy -> unit) option;
    faults : Faults.Plan.t;
    max_wall_s : float option;
    max_iterations : int option;
    backend : backend;
    trace_sample_every : int;
  }

  let default =
    {
      trace = false;
      sink = Trace.Sink.disabled;
      metrics = Metrics.Registry.disabled;
      inputs = None;
      spy_hook = None;
      faults = Faults.Plan.empty;
      max_wall_s = None;
      max_iterations = None;
      backend = Lockstep;
      trace_sample_every = 1;
    }

  let make ?(trace = false) ?(sink = Trace.Sink.disabled)
      ?(metrics = Metrics.Registry.disabled) ?inputs ?spy_hook ?(faults = Faults.Plan.empty)
      ?max_wall_s ?max_iterations ?(backend = Lockstep) ?(trace_sample_every = 1) () =
    if trace_sample_every < 1 then invalid_arg "Scheme.Config.make: trace_sample_every < 1";
    {
      trace;
      sink;
      metrics;
      inputs;
      spy_hook;
      faults;
      max_wall_s;
      max_iterations;
      backend;
      trace_sample_every;
    }
end

(* Probe ids, interned once per execution.  With the disabled sink every
   id is 0 and each probe site below reduces to one branch.

   [sink] is the leader/control-domain sink: leader-side sites (phase
   spans, fault prepass, post-join gauges) emit into it.  [rings.(w)]
   is the sink shard [w]'s callbacks emit into — on the serial engine
   every entry aliases [sink], under sharded capture it is that worker
   domain's private ring.  Ids are valid on every ring by construction
   (all interning goes through one [intern]). *)
type probes = {
  sink : Trace.Sink.t;
  rings : Trace.Sink.t array;
  sp_iter : int;
  sp_prepass : int;
  sp_mp : int;
  sp_flag : int;
  sp_sim : int;
  sp_rewind : int;
  sp_exchange : int;
  sp_output : int;
  c_mp_enter : int;
  c_mp_exit : int;
  c_mp_trunc : int;
  c_collision : int;
  c_flag_missing : int;
  c_flag_votes : int;
  c_net_correct : int;
  c_idle : int;
  c_rewind_req : int;
  c_fault_crash : int;
  c_fault_rejoin : int;
  c_fault_seed_rot : int;
  c_fault_tr_rot : int;
  c_abort : int;
  c_phi_stall : int;
  g_rewind_depth : int;
  g_phi : int;
  g_gstar : int;
  g_bstar : int;
  (* Metrics handles and the flight recorder — unlike the trace sink
     these are domain-safe (atomic cells), so the shard-callback sites
     below may fire on worker domains in parallel live mode.  Count
     metrics are Exact: at d = 0 the recorded event multiset is the
     lockstep one for every shard count, and atomic adds commute. *)
  m_on : bool;
  m_iter_c : Metrics.Registry.counter;
  m_trunc_c : Metrics.Registry.counter;
  m_rewind_c : Metrics.Registry.counter;
  m_phi_stall_c : Metrics.Registry.counter;
  m_phi_g : Metrics.Registry.gauge;
  flight : Metrics.Flight.t;
}

let make_probes ?(metrics = Metrics.Registry.disabled)
    ?(flight = Metrics.Flight.disabled) ~rings ~intern sink =
  let i n = (intern n : int) in
  {
    sink;
    rings;
    sp_iter = i "scheme.iteration";
    sp_prepass = i "phase.fault_prepass";
    sp_mp = i "phase.meeting_points";
    sp_flag = i "phase.flag_passing";
    sp_sim = i "phase.simulation";
    sp_rewind = i "phase.rewind";
    sp_exchange = i "phase.exchange";
    sp_output = i "phase.output";
    c_mp_enter = i "mp.enter";
    c_mp_exit = i "mp.exit";
    c_mp_trunc = i "mp.truncate";
    c_collision = i "mp.hash_collision";
    c_flag_missing = i "flag.missing";
    c_flag_votes = i "flag.votes";
    c_net_correct = i "flag.net_correct";
    c_idle = i "sim.idle_parties";
    c_rewind_req = i "rewind.requests";
    c_fault_crash = i "fault.crash";
    c_fault_rejoin = i "fault.rejoin";
    c_fault_seed_rot = i "fault.seed_rot";
    c_fault_tr_rot = i "fault.transcript_rot";
    c_abort = i "scheme.abort";
    c_phi_stall = i "phi.stall";
    g_rewind_depth = i "rewind.depth";
    g_phi = i "phi";
    g_gstar = i "progress.g_star";
    g_bstar = i "progress.b_star";
    m_on = Metrics.Registry.is_enabled metrics;
    m_iter_c = Metrics.Registry.counter metrics "scheme.iterations";
    m_trunc_c = Metrics.Registry.counter metrics "scheme.mp_truncations";
    m_rewind_c = Metrics.Registry.counter metrics "scheme.rewinds";
    m_phi_stall_c = Metrics.Registry.counter metrics "scheme.phi_stalls";
    m_phi_g = Metrics.Registry.gauge metrics ~klass:Metrics.Registry.Exact "scheme.phi";
    flight;
  }

(* Per-link hash memo for one meeting-points step.  Within an iteration
   [prepare] and [process] hash the same few arguments — at most two
   distinct ones per field (k; mp1 and mp2) — and with δ-biased seeds
   each transcript-prefix hash is a pass over the expanded seed, so
   repeats are served from fixed slots: [keys]/[vals] hold two
   (argument, hash) pairs for each of the 3 int fields and, at slots 3
   and 4, the 2 prefix fields; [used] counts the filled pairs per field.
   [reset_memo] empties every slot at each MP phase start, so no hash
   outlives its iteration; a third distinct argument would simply be
   hashed again.

   [m_rot] is the seed-rot fault: a fixed nonzero mask XORed into every
   hash output, memoised or not, modeling a party whose stored seed
   words decayed — its hashes are internally consistent but disagree
   with the peer's.  0 when the party's seeds are intact. *)
type memo = {
  m_seeds : Seeds.t;
  m_tr : Transcript.t;
  mutable m_iter : int;
  mutable m_rot : int;
  used : int array;
  keys : int array;
  vals : int array;
}

let memo_fields = Seeds.int_fields + Seeds.prefix_fields

let create_memo seeds tr =
  {
    m_seeds = seeds;
    m_tr = tr;
    m_iter = 0;
    m_rot = 0;
    used = Array.make memo_fields 0;
    keys = Array.make (2 * memo_fields) 0;
    vals = Array.make (2 * memo_fields) 0;
  }

let reset_memo m ~iter ~rot =
  m.m_iter <- iter;
  m.m_rot <- rot;
  Array.fill m.used 0 memo_fields 0

(* The memoised hash of [v] in field slot [f], or -1 (hashes are ≥ 0). *)
let memo_find m f v =
  let used = m.used.(f) and i = 2 * f in
  if used > 0 && m.keys.(i) = v then m.vals.(i)
  else if used > 1 && m.keys.(i + 1) = v then m.vals.(i + 1)
  else -1

let memo_add m f v h =
  let used = m.used.(f) in
  if used < 2 then begin
    m.keys.((2 * f) + used) <- v;
    m.vals.((2 * f) + used) <- h;
    m.used.(f) <- used + 1
  end;
  h

(* The link's hash oracle, built once: it reads the iteration and the
   rot mask from the memo, which [reset_memo] sets per phase. *)
let hasher_of m =
  Meeting_points.
    {
      h_int =
        (fun ~field v ->
          let h = memo_find m field v in
          let h =
            if h >= 0 then h
            else memo_add m field v (Seeds.hash_int m.m_seeds ~iter:m.m_iter ~field v)
          in
          h lxor m.m_rot);
      h_prefix =
        (fun ~field chunks ->
          let f = Seeds.int_fields + field in
          let h = memo_find m f chunks in
          let h =
            if h >= 0 then h
            else
              memo_add m f chunks
                (Seeds.hash_prefix m.m_seeds ~iter:m.m_iter ~field (Transcript.serialized m.m_tr)
                   ~bits:(Transcript.prefix_bits m.m_tr chunks))
          in
          h lxor m.m_rot);
    }

type link_state = {
  peer : int;
  edge : int;
  dir_out : int; (* directed link id self -> peer, resolved once *)
  dir_in : int; (* directed link id peer -> self *)
  tr : Transcript.t;
  mp : Meeting_points.t;
  seeds : Seeds.t;
  mutable already_rewound : bool;
  mutable bot : bool;
  mutable mp_cut : int; (* parked MP truncation target; -1 = keep *)
  mutable out_msg : Meeting_points.message; (* this iteration's outgoing MP message *)
  in_msg : int array; (* incoming MP message, packed one int per field; reused *)
  sent_log : bool option array; (* per chunk-round offset, reused *)
  recv_log : bool option array;
  mutable mp_len : int; (* transcript length captured at MP-phase start *)
  memo : memo; (* the MP hasher's memo slots, reset every MP phase *)
  hasher : Meeting_points.hasher; (* over [memo], built once *)
}

type party_state = {
  id : int;
  links : link_state array; (* in [Graph.neighbors] order *)
  repl : Replayer.t;
  mutable net_correct : bool;
}

(* Links are laid out in sorted-adjacency order, so the link to a given
   neighbor is found by binary search — no per-party O(n) lookup array,
   which at 10k parties would be O(n²) memory. *)
let link_to graph p nbr = p.links.(Topology.Graph.neighbor_index graph p.id nbr)
let transcripts_fn graph p = fun nbr -> (link_to graph p nbr).tr

let iterations_of params n_real =
  (params.Params.iteration_factor * n_real) + params.Params.extra_iterations

let phase_round_counts params ch tree =
  let n = Topology.Graph.n (Chunking.pi ch).Pi.graph in
  let mp = 5 * params.Params.tau in
  let flag = if params.Params.flag_passing then Flag_passing.rounds_needed tree else 0 in
  let sim = 1 + Chunking.max_rounds ch in
  let rewind = if params.Params.rewind then n else 0 in
  (mp, flag, sim, rewind)

let planned_rounds params pi =
  let ch = Chunking.make pi ~k:params.Params.k in
  let tree = Topology.Graph.bfs_tree pi.Pi.graph in
  let mp, flag, sim, rewind = phase_round_counts params ch tree in
  let per_iter = mp + flag + sim + rewind in
  let exchange =
    match params.Params.seed_mode with
    | Params.Crs -> 0
    | Params.Exchange -> Randomness_exchange.rounds_needed ()
  in
  exchange + (iterations_of params (Chunking.n_real ch) * per_iter)

(* Per-run fault state threaded through the phase executors.  [alive]
   is the crash mask (dead parties neither send nor update state);
   [rot_mask.(id)] is the party's fixed seed-rot mask (0 when the plan
   never rots that party's seeds). *)
type fault_ctx = {
  plan : Faults.Plan.t;
  diag : Faults.Outcome.diagnosis;
  alive : bool array;
  rot_mask : int array;
}

(* ---------- phase executors ----------

   Each drives the network through a live execution engine (lib/live):
   a phase is a sequence of [Live.Exec.round]s whose write callback
   submits the round's transmissions for one shard's parties (by
   precomputed dir index, into the shard's sparse [Active] buffer) and
   whose read callback consumes the committed deliveries, plus
   [slice] jobs for the no-network per-party steps.  Every callback
   touches only the state of its own shard's parties — that discipline
   is what lets the same four phase drivers run unmodified on the
   lockstep (serial, one shard) and live (one domain per shard,
   optionally ragged) backends.  [recv_link]/[recv_party] resolve a
   delivered dir id to the receiving endpoint in O(1). *)

type transport = {
  recv_link : link_state array; (* dir -> link at the receiving endpoint *)
  recv_party : int array; (* dir -> receiving party id *)
}

(* Apply [f] to each party of [shard], in ascending id order. *)
let iter_shard ex parties shard f =
  let lo, hi = Live.Exec.bounds ex ~shard in
  for id = lo to hi - 1 do
    f parties.(id)
  done

(* Ground truth for the hash-collision probe: compare this endpoint's
   transcript with the peer's copy of the same link.  [None] when either
   side is already shorter than the position (the peer may have truncated
   earlier in this very phase). *)
let collision_probe graph parties pr ring l p ~iter =
  let peer_tr = (link_to graph parties.(l.peer) p.id).tr in
  Meeting_points.
    {
      truth =
        (fun ~pos ->
          if pos <= Transcript.length l.tr && pos <= Transcript.length peer_tr then
            Some (Transcript.equal_prefix l.tr peer_tr >= pos)
          else None);
      on_collision = (fun ~pos -> Trace.Sink.count ring ~id:pr.c_collision ~iter ~arg:pos 1);
    }

let meeting_points_phase ex net _tp parties fc pr ~iter ~tau =
  let graph = Network.graph net in
  let mp_rounds = Meeting_points.message_bits ~tau in
  (* Seed-rot accounting runs leader-side (the rot decision is a pure
     keyed function): the diagnosis record and the trace sink are not
     shard-local, so the prepare slice below must not touch them. *)
  Array.iter
    (fun p ->
      if fc.alive.(p.id) && Faults.Plan.seed_rot fc.plan ~party:p.id ~iteration:iter then
        Array.iter
          (fun _l ->
            fc.diag.Faults.Outcome.seed_rot <- fc.diag.Faults.Outcome.seed_rot + 1;
            Trace.Sink.count pr.sink ~id:pr.c_fault_seed_rot ~iter ~arg:p.id 1)
          p.links)
    parties;
  Live.Exec.slice ex (fun w ->
      iter_shard ex parties w (fun p ->
          if fc.alive.(p.id) then begin
            let rot =
              if Faults.Plan.seed_rot fc.plan ~party:p.id ~iteration:iter then fc.rot_mask.(p.id)
              else 0
            in
            Array.iter
              (fun l ->
                l.mp_len <- Transcript.length l.tr;
                reset_memo l.memo ~iter ~rot;
                l.out_msg <- Meeting_points.prepare l.mp l.hasher ~len:l.mp_len;
                Array.fill l.in_msg 0 (Array.length l.in_msg) 0)
              p.links
          end));
  for t = 0 to mp_rounds - 1 do
    let label =
      if t = 0 then
        Some (fun () -> Network.set_phase net ~iteration:iter ~phase:Netsim.Adversary.Meeting_points)
      else None
    in
    (* [for] loops, not [Array.iter]: a closure per party per round was
       most of what this phase allocated once hashing stopped boxing. *)
    Live.Exec.round ex ?label
      ~write:(fun ~shard buf ->
        iter_shard ex parties shard (fun p ->
            if fc.alive.(p.id) then
              for i = 0 to Array.length p.links - 1 do
                let l = p.links.(i) in
                Active.send buf ~dir:l.dir_out (Meeting_points.wire_bit ~tau l.out_msg t)
              done))
      ~read:(fun ~shard master ->
        (* [in_msg] was zeroed; each shard polls its own in-directions —
           the MP phase speaks on every live link, so O(own links)
           matches O(delivered) here.  Only 1s are recorded: a 0 and a
           deletion both leave the bit 0. *)
        iter_shard ex parties shard (fun p ->
            if fc.alive.(p.id) then
              for i = 0 to Array.length p.links - 1 do
                let l = p.links.(i) in
                match Active.get master ~dir:l.dir_in with
                | Some true -> Meeting_points.receive_bit ~tau l.in_msg t
                | Some false | None -> ()
              done))
      ()
  done;
  let observing = Trace.Sink.is_enabled pr.sink in
  if observing then begin
    (* Decide/apply split: the collision probe's ground truth reads the
       peer's transcript, which may live on another shard.  No barrier
       is needed before the decide slice — every transcript write it
       can read was either quiesced by the previous iteration's join
       (worker-side sim/rewind writes) or published by the job-append
       release store (leader-side prepass rot), and the MP rounds in
       flight never touch transcripts.  The decide slice only computes
       each link's verdict (parked in [mp_cut]) — nobody truncates, so
       the cross-shard reads race nothing; one barrier, then
       truncations apply shard-locally (a lagging decide may still be
       reading the peer copy, so applies must not start before every
       decide is done).  Both engines run this same traced job stream,
       which is what keeps merged parallel traces byte-identical to the
       serial oracle. *)
    Live.Exec.slice ex (fun w ->
        iter_shard ex parties w (fun p ->
            if fc.alive.(p.id) then
              Array.iter
                (fun l ->
                  let msg = Meeting_points.decode_packed l.in_msg in
                  let probe = collision_probe graph parties pr pr.rings.(w) l p ~iter in
                  l.mp_cut <-
                    (match
                       Meeting_points.process l.mp l.hasher ~probe
                         ~len:l.mp_len msg
                     with
                    | `Keep -> -1
                    | `Truncate_to x -> x))
                p.links));
    Live.Exec.join ex;
    Live.Exec.slice ex (fun w ->
        iter_shard ex parties w (fun p ->
            if fc.alive.(p.id) then
              Array.iter
                (fun l ->
                  if l.mp_cut >= 0 then begin
                    Trace.Sink.count pr.rings.(w) ~id:pr.c_mp_trunc ~iter ~arg:p.id 1;
                    Metrics.Registry.incr pr.m_trunc_c;
                    Transcript.truncate l.tr l.mp_cut;
                    l.mp_cut <- -1
                  end)
                p.links))
  end
  else
    Live.Exec.slice ex (fun w ->
        iter_shard ex parties w (fun p ->
            if fc.alive.(p.id) then
              Array.iter
                (fun l ->
                  let msg = Meeting_points.decode_packed l.in_msg in
                  match
                    Meeting_points.process l.mp l.hasher ~len:l.mp_len msg
                  with
                  | `Keep -> ()
                  | `Truncate_to x ->
                      Metrics.Registry.incr pr.m_trunc_c;
                      Transcript.truncate l.tr x)
                p.links))

let compute_statuses ex parties ~alive ~statuses =
  Live.Exec.slice ex (fun w ->
      iter_shard ex parties w (fun p ->
          let in_mp =
            Array.exists
              (fun l -> Meeting_points.status l.mp = Meeting_points.Meeting_points)
              p.links
          in
          let len0 = Transcript.length p.links.(0).tr in
          let equal_lens = Array.for_all (fun l -> Transcript.length l.tr = len0) p.links in
          statuses.(p.id) <- alive.(p.id) && (not in_mp) && equal_lens))

let simulation_phase ex net tp parties fc ch ~iter ~n_real =
  let graph = Network.graph net in
  let nshards = Live.Exec.shards ex in
  let max_r = Chunking.max_rounds ch in
  (* Participation — alive with netCorrect up — is known before the
     phase starts, so only participants' per-link logs are reset and
     only participants listen: idle parties cost this phase nothing.
     (Stale logs on idle parties are never read: every read below is
     behind the participant test, and a party that participates in a
     later iteration resets first.)  The per-shard participant lists
     are built by the owning shard — machine reconstruction reads only
     the party's own transcripts. *)
  let is_participant = Array.make (Array.length parties) false in
  let participants = Array.make nshards [] in
  Live.Exec.slice ex (fun w ->
      let acc = ref [] in
      iter_shard ex parties w (fun p ->
          is_participant.(p.id) <- fc.alive.(p.id) && p.net_correct;
          if is_participant.(p.id) then begin
            Array.iter
              (fun l ->
                l.bot <- false;
                Array.fill l.sent_log 0 max_r None;
                Array.fill l.recv_log 0 max_r None)
              p.links;
            let min_len =
              Array.fold_left (fun acc l -> min acc (Transcript.length l.tr)) max_int p.links
            in
            let c = min_len + 1 in
            let machine =
              if c <= n_real then
                Some
                  (Replayer.machine_at p.repl ~transcripts:(transcripts_fn graph p)
                     ~upto:(c - 1))
              else None
            in
            acc := (p, c, machine, Chunking.chunk ch c) :: !acc
          end);
      participants.(w) <- List.rev !acc);
  (* ⊥ round: idling parties announce, participants listen (Line 16/23).
     Crashed parties announce nothing — their links just go dark. *)
  Live.Exec.round ex
    ~label:(fun () -> Network.set_phase net ~iteration:iter ~phase:Netsim.Adversary.Simulation)
    ~write:(fun ~shard buf ->
      iter_shard ex parties shard (fun p ->
          if fc.alive.(p.id) && not p.net_correct then
            Array.iter (fun l -> Active.send buf ~dir:l.dir_out true) p.links))
    ~read:(fun ~shard master ->
      Active.iter master (fun ~dir _bit ->
          let id = tp.recv_party.(dir) in
          if Live.Exec.owner ex id = shard && is_participant.(id) then
            tp.recv_link.(dir).bot <- true))
    ();
  for t = 0 to max_r - 1 do
    Live.Exec.round ex
      ~write:(fun ~shard buf ->
        List.iter
          (fun (p, _, machine, sched) ->
            if t < Array.length sched.Chunking.rounds then
              List.iter
                (fun slot ->
                  if slot.Chunking.src = p.id then begin
                    let bit =
                      match (slot.Chunking.pi_round, machine) with
                      | Some r, Some mc -> mc.Pi.send ~round:r ~dst:slot.Chunking.dst
                      | Some r, None ->
                          ignore r;
                          false
                      | None, _ -> false
                    in
                    let l = link_to graph p slot.Chunking.dst in
                    if not l.bot then begin
                      Active.send buf ~dir:l.dir_out bit;
                      l.sent_log.(t) <- Some bit
                    end
                  end)
                sched.Chunking.rounds.(t))
          participants.(shard))
      ~read:(fun ~shard master ->
        Active.iter master (fun ~dir bit ->
            let id = tp.recv_party.(dir) in
            if Live.Exec.owner ex id = shard && is_participant.(id) then
              tp.recv_link.(dir).recv_log.(t) <- Some bit);
        (* Feed the live machines, sends-before-receives per round. *)
        List.iter
          (fun (p, _, machine, sched) ->
            match machine with
            | None -> ()
            | Some mc ->
                if t < Array.length sched.Chunking.rounds then
                  List.iter
                    (fun slot ->
                      if slot.Chunking.dst = p.id then
                        match slot.Chunking.pi_round with
                        | Some r ->
                            let l = link_to graph p slot.Chunking.src in
                            let bit =
                              if l.bot then false
                              else Option.value ~default:false l.recv_log.(t)
                            in
                            mc.Pi.recv ~round:r ~src:slot.Chunking.src bit
                        | None -> ())
                    sched.Chunking.rounds.(t))
          participants.(shard))
      ()
  done;
  (* Record the observed chunk on every non-⊥ link (Tu,v grows by one
     chunk, laid out by the schedule of the chunk the *link* expects). *)
  Live.Exec.slice ex (fun w ->
      List.iter
        (fun (p, c, machine, _) ->
          let all_aligned = ref true in
          Array.iter
            (fun l ->
              if l.bot then all_aligned := false
              else begin
                let e = Transcript.length l.tr + 1 in
                if e <> c then all_aligned := false;
                let chunk_slots = Chunking.link_slots ch ~chunk_index:e ~edge:l.edge in
                let events =
                  Array.map
                    (fun (roff, src, _) ->
                      let log = if src = p.id then l.sent_log else l.recv_log in
                      match if roff < Array.length log then log.(roff) else None with
                      | Some b -> Transcript.sym_bit b
                      | None -> Transcript.sym_star)
                    chunk_slots
                in
                Transcript.push_chunk l.tr ~events
              end)
            p.links;
          match machine with
          | Some mc when !all_aligned && c <= n_real ->
              Replayer.store p.repl ~machine:mc ~upto:c ~transcripts:(transcripts_fn graph p)
          | _ -> ())
        participants.(w))

let rewind_phase ex net tp parties fc pr ~iter ~reqs ~depth =
  let n = Array.length parties in
  let nshards = Live.Exec.shards ex in
  (* Wave shape for the trace: [reqs] counts every chunk rewound (self-
     initiated or honored request); [depth] is the last round of the
     phase in which any link still moved.  Per-shard caller scratch,
     written only by the owning shard's round callbacks; the caller
     sums/maxes it behind the end-of-iteration join, so no join is
     spent here. *)
  Array.fill reqs 0 nshards 0;
  Array.fill depth 0 nshards 0;
  (* Only parties whose per-link state changed since their last
     evaluation can newly satisfy the send predicate: meeting-points
     statuses are frozen for the phase, [already_rewound] is monotone,
     and transcript lengths change only through a party's own
     truncations.  So the phase keeps per-shard candidate sets —
     initially every live party — re-admitting a party only when it
     truncates (as sender or as receiver of a request; both touch only
     the owner's cells).  Rounds late in the wave cost O(new activity),
     not O(n · degree). *)
  let candidate = Array.make n false in
  let cur = Array.make nshards [] and nxt = Array.make nshards [] in
  let readmit w id =
    if fc.alive.(id) && not candidate.(id) then begin
      candidate.(id) <- true;
      nxt.(w) <- id :: nxt.(w)
    end
  in
  Live.Exec.slice ex (fun w ->
      let acc = ref [] in
      iter_shard ex parties w (fun p ->
          if fc.alive.(p.id) then begin
            candidate.(p.id) <- true;
            acc := p.id :: !acc
          end);
      cur.(w) <- List.rev !acc);
  for round = 1 to n do
    let label =
      if round = 1 then
        Some (fun () -> Network.set_phase net ~iteration:iter ~phase:Netsim.Adversary.Rewind)
      else None
    in
    Live.Exec.round ex ?label
      ~write:(fun ~shard buf ->
        (* Plan sends from the state at round start (Line 27-31); the
           per-link truncation can be applied immediately because each
           link's decision reads only its own length against the party's
           min, which a single-chunk truncation of a longer link cannot
           lower. *)
        List.iter (fun id -> candidate.(id) <- false) cur.(shard);
        nxt.(shard) <- [];
        List.iter
          (fun id ->
            let p = parties.(id) in
            let min_len =
              Array.fold_left (fun acc l -> min acc (Transcript.length l.tr)) max_int p.links
            in
            let sent = ref false in
            Array.iter
              (fun l ->
                if
                  Meeting_points.status l.mp <> Meeting_points.Meeting_points
                  && (not l.already_rewound)
                  && Transcript.length l.tr > min_len
                then begin
                  Active.send buf ~dir:l.dir_out true;
                  Transcript.truncate l.tr (Transcript.length l.tr - 1);
                  l.already_rewound <- true;
                  Metrics.Registry.incr pr.m_rewind_c;
                  reqs.(shard) <- reqs.(shard) + 1;
                  depth.(shard) <- round;
                  sent := true
                end)
              p.links;
            if !sent then readmit shard id)
          cur.(shard))
      ~read:(fun ~shard master ->
        (* Any symbol received in a rewind round is a rewind request —
           insertions forge them, deletions suppress them (Line 33-38). *)
        Active.iter master (fun ~dir _bit ->
            let id = tp.recv_party.(dir) in
            if Live.Exec.owner ex id = shard && fc.alive.(id) then begin
              let l = tp.recv_link.(dir) in
              if
                Meeting_points.status l.mp <> Meeting_points.Meeting_points
                && not l.already_rewound
              then begin
                if Transcript.length l.tr > 0 then
                  Transcript.truncate l.tr (Transcript.length l.tr - 1);
                l.already_rewound <- true;
                Metrics.Registry.incr pr.m_rewind_c;
                reqs.(shard) <- reqs.(shard) + 1;
                depth.(shard) <- round;
                readmit shard id
              end
            end);
        cur.(shard) <- nxt.(shard))
      ()
  done

(* ---------- global instrumentation (simulator-side only) ---------- *)

let stats_of net parties graph ~iteration =
  let edges = Topology.Graph.edges graph in
  let g_star = ref max_int and h_star = ref 0 and sum_g = ref 0 and links_in_mp = ref 0 in
  let mp_k_total = ref 0 and sum_b = ref 0 in
  Array.iter
    (fun (u, v) ->
      let lu = link_to graph parties.(u) v in
      let lv = link_to graph parties.(v) u in
      let g = Transcript.equal_prefix lu.tr lv.tr in
      g_star := min !g_star g;
      sum_g := !sum_g + g;
      sum_b := !sum_b + (max (Transcript.length lu.tr) (Transcript.length lv.tr) - g);
      h_star := max !h_star (max (Transcript.length lu.tr) (Transcript.length lv.tr));
      mp_k_total := !mp_k_total + Meeting_points.k lu.mp + Meeting_points.k lv.mp;
      if
        Meeting_points.status lu.mp = Meeting_points.Meeting_points
        || Meeting_points.status lv.mp = Meeting_points.Meeting_points
      then incr links_in_mp)
    edges;
  let g_star = if !g_star = max_int then 0 else !g_star in
  let net_stats = Network.stats net in
  {
    iteration;
    g_star;
    h_star = !h_star;
    b_star = !h_star - g_star;
    sum_g = !sum_g;
    sum_b = !sum_b;
    links_in_mp = !links_in_mp;
    mp_k_total = !mp_k_total;
    cc = net_stats.Network.cc;
    corruptions = net_stats.Network.corruptions;
  }

let all_done parties graph ~n_real =
  Array.for_all
    (fun (u, v) ->
      let lu = link_to graph parties.(u) v in
      let lv = link_to graph parties.(v) u in
      Transcript.equal_prefix lu.tr lv.tr >= n_real)
    (Topology.Graph.edges graph)

(* ---------- main entry ---------- *)

exception Abort of Faults.Outcome.abort_reason

let planned_iterations params pi =
  let ch = Chunking.make pi ~k:params.Params.k in
  iterations_of params (Chunking.n_real ch)

let run_outcome ?(config = Config.default) ~rng params pi adversary =
  Pi.validate pi;
  let graph = pi.Pi.graph in
  let n = Topology.Graph.n graph and m = Topology.Graph.m graph in
  (* Configuration validation raises ordinary [Invalid_argument] — only
     the execution proper is under the never-raise contract. *)
  let inputs =
    match config.Config.inputs with
    | Some i ->
        if Array.length i <> n then invalid_arg "Scheme.run: wrong input count";
        i
    | None -> Array.init n (fun _ -> Util.Rng.int rng 65536)
  in
  let plan = config.Config.faults in
  let diag = Faults.Outcome.fresh_diagnosis () in
  let metrics = config.Config.metrics in
  (* The flight recorder is always on: a bounded ring of the last phase
     events, dumped into the diagnosis if the run aborts — live-mode
     crashes stay debuggable without a trace sink. *)
  let flight = Metrics.Flight.create () in
  (* Outcome tallies are registered eagerly so all three names appear in
     every snapshot (zero-valued included) — the registration set stays
     invariant across runs that end differently. *)
  let completed_c, degraded_c, aborted_c =
    let open Metrics.Registry in
    ( counter metrics "scheme.outcome.completed",
      counter metrics "scheme.outcome.degraded",
      counter metrics "scheme.outcome.aborted" )
  in
  let t0 = Sys.time () in
  let net_ref = ref None in
  let iterations_run = ref 0 in
  let iterations_planned = ref 0 in
  let body () =
    let reference = Pi.run_noiseless pi ~inputs in
    let ch = Chunking.make pi ~k:params.Params.k in
    let n_real = Chunking.n_real ch in
    let iterations = iterations_of params n_real in
    iterations_planned := iterations;
    let effective_iterations =
      match config.Config.max_iterations with
      | None -> iterations
      | Some c ->
          if c <= 0 then raise (Abort (Faults.Outcome.Iteration_budget c));
          min c iterations
    in
    let horizon = n_real + iterations + 2 in
    let wmax = Chunking.max_transcript_words ch ~horizon in
    let tree = Topology.Graph.bfs_tree graph in
    let net = Network.create graph adversary in
    net_ref := Some net;
    Network.set_fault_hooks net (Faults.Plan.network_hooks plan);
    (* ---- execution engine ----
       The lockstep backend is the live engine's one-shard default
       (serial, d = 0) — exactly the historical round loop.  The
       adversary spy forces the serial engine through [force_serial]
       (it reads party state between rounds); a trace sink does not —
       parallel runs capture into per-domain rings and a deterministic
       merge rebuilds the serial event order afterwards. *)
    let live_cfg =
      let c = match config.Config.backend with Lockstep -> Live.Config.default | Live c -> c in
      if Option.is_some config.Config.spy_hook then { c with force_serial = true } else c
    in
    let weights = Array.init n (fun id -> Topology.Graph.degree graph id) in
    let ex = Live.Exec.create ~net ~config:live_cfg ~metrics ~weights () in
    let observing = Trace.Sink.is_enabled config.Config.sink in
    (* Sharded capture: one ring per worker domain plus a leader ring,
       merged into the caller's sink after shutdown — every existing
       consumer of [config.sink] works unchanged.  The serial engine
       emits inline into the caller's sink; no merge needed. *)
    let sharded =
      if observing && not (Live.Exec.is_serial ex) then
        Trace.Sharded.create ~shards:(Live.Exec.shards ex)
          ~capacity:(Trace.Sink.capacity config.Config.sink)
          ~profile:(Trace.Sink.profiled config.Config.sink) ()
      else Trace.Sharded.disabled
    in
    let pr =
      if Trace.Sharded.is_enabled sharded then begin
        Live.Exec.set_trace ex sharded;
        make_probes ~metrics ~flight
          ~rings:(Array.init (Live.Exec.shards ex) (Trace.Sharded.ring sharded))
          ~intern:(Trace.Sharded.intern sharded)
          (Trace.Sharded.leader sharded)
      end
      else
        make_probes ~metrics ~flight
          ~rings:(Array.make (Live.Exec.shards ex) config.Config.sink)
          ~intern:(Trace.Sink.intern config.Config.sink)
          config.Config.sink
    in
    let sink = pr.sink in
    (* net.* names must enter the shared id space before [set_trace]
       interns them (leader-only interning would misalign the rings). *)
    if Trace.Sharded.is_enabled sharded then
      List.iter
        (fun nm -> ignore (Trace.Sharded.intern sharded nm : int))
        [ "net.corrupt"; "net.injected"; "net.stalled" ];
    Network.set_trace net sink;
    Network.set_metrics net metrics;
    Fun.protect
      ~finally:(fun () ->
        Live.Exec.shutdown ex;
        if Trace.Sharded.is_enabled sharded then
          Trace.Merge.into_sink sharded ~dst:config.Config.sink)
    @@ fun () ->
    let flag_sched = Flag_passing.compile graph ~tree in
    let max_r = Chunking.max_rounds ch in
    (* Randomness: CRS or per-link exchange (Algorithm 5). *)
    let exchange_failures = ref 0 in
    let seeds_for =
      match params.Params.seed_mode with
      | Params.Crs ->
          let key = Util.Rng.int64 rng in
          fun ~edge ~lower:_ ->
            Seeds.make ~stream:(Hashing.Seed_stream.uniform ~key) ~tau:params.Params.tau ~wmax
              ~slot:edge ~slots:m
      | Params.Exchange ->
          Network.set_phase net ~iteration:(-1) ~phase:Netsim.Adversary.Exchange;
          Trace.Sink.span_begin sink ~id:pr.sp_exchange ~iter:(-1);
          let outcomes = Randomness_exchange.run ~sink net ~rng in
          Trace.Sink.span_end sink ~id:pr.sp_exchange ~iter:(-1);
          Array.iter
            (fun o -> if not o.Randomness_exchange.ok then incr exchange_failures)
            outcomes;
          fun ~edge ~lower ->
            let o = outcomes.(edge) in
            let gen =
              if lower then o.Randomness_exchange.lo_gen else o.Randomness_exchange.hi_gen
            in
            Seeds.make ~stream:(Hashing.Seed_stream.biased gen) ~tau:params.Params.tau ~wmax
              ~slot:0 ~slots:1
    in
    let parties =
      Array.init n (fun id ->
          let neighbors = Topology.Graph.neighbors graph id in
          let links =
            Array.map
              (fun peer ->
                let edge = Topology.Graph.edge_id graph id peer in
                let tr = Transcript.create () and seeds = seeds_for ~edge ~lower:(id < peer) in
                let memo = create_memo seeds tr in
                {
                  peer;
                  edge;
                  dir_out = Topology.Graph.dir_id graph ~src:id ~dst:peer;
                  dir_in = Topology.Graph.dir_id graph ~src:peer ~dst:id;
                  tr;
                  mp = Meeting_points.create ();
                  seeds;
                  already_rewound = false;
                  bot = false;
                  mp_cut = -1;
                  out_msg = Meeting_points.{ hk = 0; hp1 = 0; hp2 = 0; ht1 = 0; ht2 = 0 };
                  in_msg = Array.make 5 0;
                  sent_log = Array.make max_r None;
                  recv_log = Array.make max_r None;
                  mp_len = 0;
                  memo;
                  hasher = hasher_of memo;
                })
              neighbors
          in
          {
            id;
            links;
            repl = Replayer.create ch ~party:id ~input:inputs.(id) ~neighbors;
            net_correct = true;
          })
    in
    (* Transport plumbing: the dir -> receiving-endpoint tables that let
       the delivered set be consumed without scanning all 2m directions. *)
    let tp =
      let recv_link =
        Array.init (2 * m) (fun dir ->
            let src, dst = Network.link_ends net ~dir in
            let l = link_to graph parties.(dst) src in
            assert (l.dir_in = dir);
            l)
      in
      let recv_party = Array.init (2 * m) (fun dir -> snd (Network.link_ends net ~dir)) in
      { recv_link; recv_party }
    in
    (* ---- fault state ---- *)
    let alive = Array.make n true in
    let rot_mask =
      Array.init n (fun id ->
          if
            List.exists
              (function Faults.Plan.Seed_rot { party; _ } -> party = id | _ -> false)
              (Faults.Plan.specs plan)
          then
            1
            + Faults.Plan.choice plan ~salt:5 ~coord:id
                ~bound:(max 1 ((1 lsl min params.Params.tau 30) - 1))
          else 0)
    in
    let fc = { plan; diag; alive; rot_mask } in
    let have_faults = not (Faults.Plan.is_empty plan) in
    (* ---- trace scratch ---- *)
    let total_links = Array.fold_left (fun acc p -> acc + Array.length p.links) 0 parties in
    (* Per-link meeting-points status snapshot taken before each MP phase,
       so the enter/exit transition counters come from a diff, not from
       hooks inside the mechanism.  The snapshot runs as a slice (each
       shard fills its own parties' cells — disjoint [link_base]
       ranges); the diff runs on the leader, deferred to behind the
       end-of-iteration join (MP statuses only mutate inside the MP
       phase, so the deferred read sees exactly the post-phase values).
       Neither spends a join of its own. *)
    let mp_before = Array.make (max 1 total_links) false in
    let link_base = Array.make (n + 1) 0 in
    Array.iteri (fun i p -> link_base.(i + 1) <- link_base.(i) + Array.length p.links) parties;
    let record_mp_status () =
      Live.Exec.slice ex (fun w ->
          iter_shard ex parties w (fun p ->
              let i = ref link_base.(p.id) in
              Array.iter
                (fun l ->
                  mp_before.(!i) <- Meeting_points.status l.mp = Meeting_points.Meeting_points;
                  incr i)
                p.links))
    in
    let count_mp_transitions ~iter =
      let enter = ref 0 and exit_ = ref 0 and i = ref 0 in
      Array.iter
        (fun p ->
          Array.iter
            (fun l ->
              let now = Meeting_points.status l.mp = Meeting_points.Meeting_points in
              if now && not mp_before.(!i) then incr enter
              else if (not now) && mp_before.(!i) then incr exit_;
              incr i)
            p.links)
        parties;
      if !enter > 0 then Trace.Sink.count sink ~id:pr.c_mp_enter ~iter !enter;
      if !exit_ > 0 then Trace.Sink.count sink ~id:pr.c_mp_exit ~iter !exit_
    in
    let prev_phi = ref Float.nan in
    (* ---- adversary spy ---- *)
    let cur_iter = ref 0 in
    let flag_probe =
      if observing then
        Some
          Flag_passing.
            {
              on_missing =
                (fun ~shard ~node ->
                  (* Fires inside a shard's read callback — emit into
                     that shard's own ring. *)
                  Trace.Sink.count pr.rings.(shard) ~id:pr.c_flag_missing ~iter:!cur_iter
                    ~arg:node 1);
            }
      else None
    in
    (match config.Config.spy_hook with
    | None -> ()
    | Some hook ->
        let edge_view e =
          let u, v = (Topology.Graph.edges graph).(e) in
          let lo = min u v and hi = max u v in
          let l_lo = link_to graph parties.(lo) hi in
          let l_hi = link_to graph parties.(hi) lo in
          assert (l_lo.peer = hi && l_hi.peer = lo);
          let in_sync =
            Meeting_points.status l_lo.mp = Meeting_points.Simulate
            && Meeting_points.status l_hi.mp = Meeting_points.Simulate
            && Transcript.length l_lo.tr = Transcript.length l_hi.tr
            && Transcript.equal_prefix l_lo.tr l_hi.tr = Transcript.length l_lo.tr
          in
          { tr_lo = l_lo.tr; tr_hi = l_hi.tr; seeds = l_lo.seeds; in_sync }
        in
        hook { spy_chunking = ch; current_iteration = (fun () -> !cur_iter); edge_view });
    (* ---- main loop ---- *)
    let traces = ref [] in
    let continue_loop = ref true in
    let iter = ref 0 in
    (* Per-iteration scratch, written shard-locally by the phase
       executors (each cell touched only by the party's owner). *)
    let statuses = Array.make n false in
    let flag_agg = Array.make n false in
    let net_corrects = Array.make n false in
    let nshards_scratch = Live.Exec.shards ex in
    let rewind_reqs = Array.make nshards_scratch 0 in
    let rewind_depth = Array.make nshards_scratch 0 in
    while !continue_loop && !iter < effective_iterations do
      let it = !iter in
      if observing && config.Config.trace_sample_every > 1 then begin
        (* Per-shard sampling: keep 1-in-N iterations.  Mute flips ride
           the job stream (each worker flips its own ring when it
           reaches the slice), so every ring switches at the same
           schedule position — exact at d = 0, ragged like everything
           else at d > 0.  Counter totals cover sampled iterations. *)
        let keep = it mod config.Config.trace_sample_every = 0 in
        if Trace.Sink.muted sink <> not keep then begin
          Live.Exec.slice ex (fun w -> Trace.Sink.set_muted pr.rings.(w) (not keep));
          Trace.Sink.set_muted sink (not keep)
        end
      end;
      Trace.Sink.span_begin sink ~id:pr.sp_iter ~iter:it;
      (* The flight recorder books iteration entry before the watchdog
         gets to kill it — a post-abort dump must name the iteration
         the run died in. *)
      Metrics.Flight.note pr.flight ~iter:it "scheme.iteration";
      (match config.Config.max_wall_s with
      | Some b when Sys.time () -. t0 > b ->
          Trace.Sink.count sink ~id:pr.c_abort ~iter:it 1;
          raise (Abort (Faults.Outcome.Wall_budget b))
      | _ -> ());
      iterations_run := it + 1;
      cur_iter := it;
      Metrics.Registry.incr pr.m_iter_c;
      Log.debug (fun f ->
          let s = Network.stats net in
          f "iteration %d: cc=%d corruptions=%d" it s.Network.cc s.Network.corruptions);
      (* Party-state faults fire at iteration boundaries: crash windows
         are re-evaluated, recovering parties rejoin with transcripts
         truncated to half, and transcript rot flips one stored symbol of
         a keyed link/chunk choice. *)
      if have_faults then begin
        Trace.Sink.span_begin sink ~id:pr.sp_prepass ~iter:it;
        for id = 0 to n - 1 do
          let p = parties.(id) in
          if Faults.Plan.rejoins plan ~party:id ~iteration:it then begin
            Array.iter (fun l -> Transcript.truncate l.tr (Transcript.length l.tr / 2)) p.links;
            diag.Faults.Outcome.rejoins <- diag.Faults.Outcome.rejoins + 1;
            Trace.Sink.count sink ~id:pr.c_fault_rejoin ~iter:it ~arg:id 1;
            Metrics.Flight.note pr.flight ~iter:it ~arg:id "fault.rejoin";
            Faults.Outcome.note diag
              (Printf.sprintf "party %d rejoined at iteration %d with truncated transcripts" id
                 it)
          end;
          let down = Faults.Plan.crashed plan ~party:id ~iteration:it in
          if down && alive.(id) then begin
            Trace.Sink.count sink ~id:pr.c_fault_crash ~iter:it ~arg:id 1;
            Metrics.Flight.note pr.flight ~iter:it ~arg:id "fault.crash";
            Faults.Outcome.note diag (Printf.sprintf "party %d crashed at iteration %d" id it)
          end;
          alive.(id) <- not down;
          if down then
            diag.Faults.Outcome.crashed_iterations <- diag.Faults.Outcome.crashed_iterations + 1;
          if (not down) && Faults.Plan.transcript_rot plan ~party:id ~iteration:it then begin
            let li =
              Faults.Plan.choice plan ~salt:2 ~coord:((it * 4096) + id)
                ~bound:(Array.length p.links)
            in
            let l = p.links.(li) in
            let len = Transcript.length l.tr in
            if len > 0 then begin
              let chunk =
                1 + Faults.Plan.choice plan ~salt:3 ~coord:((it * 4096) + id) ~bound:len
              in
              let row = Transcript.events l.tr chunk in
              if Array.length row > 0 then begin
                let event =
                  Faults.Plan.choice plan ~salt:4 ~coord:((it * 4096) + id)
                    ~bound:(Array.length row)
                in
                Transcript.corrupt l.tr ~chunk ~event;
                Trace.Sink.count sink ~id:pr.c_fault_tr_rot ~iter:it ~arg:id 1;
                diag.Faults.Outcome.transcript_rot <- diag.Faults.Outcome.transcript_rot + 1
              end
            end
          end
        done;
        Trace.Sink.span_end sink ~id:pr.sp_prepass ~iter:it
      end;
      Array.iter (fun p -> Array.iter (fun l -> l.already_rewound <- false) p.links) parties;
      if observing then record_mp_status ();
      Metrics.Flight.note pr.flight ~iter:it "phase.meeting_points";
      Trace.Sink.span_begin sink ~id:pr.sp_mp ~iter:it;
      meeting_points_phase ex net tp parties fc pr ~iter:it ~tau:params.Params.tau;
      Trace.Sink.span_end sink ~id:pr.sp_mp ~iter:it;
      compute_statuses ex parties ~alive ~statuses;
      Metrics.Flight.note pr.flight ~iter:it "phase.flag_passing";
      Trace.Sink.span_begin sink ~id:pr.sp_flag ~iter:it;
      if params.Params.flag_passing then
        Flag_passing.run_exec ~alive ?probe:flag_probe
          ~label:(fun () -> Network.set_phase net ~iteration:it ~phase:Netsim.Adversary.Flag)
          ex flag_sched ~statuses ~agg:flag_agg ~net_correct:net_corrects
      else
        Live.Exec.slice ex (fun w ->
            let lo, hi = Live.Exec.bounds ex ~shard:w in
            Array.blit statuses lo net_corrects lo (hi - lo));
      Trace.Sink.span_end sink ~id:pr.sp_flag ~iter:it;
      Live.Exec.slice ex (fun w ->
          iter_shard ex parties w (fun p -> p.net_correct <- net_corrects.(p.id)));
      if Live.Exec.is_serial ex then
        Log.debug (fun f ->
            f "iteration %d: statuses=[%s] netCorrect=[%s]" it
              (String.concat ""
                 (List.map (fun s -> if s then "1" else "0") (Array.to_list statuses)))
              (String.concat ""
                 (List.map (fun s -> if s then "1" else "0") (Array.to_list net_corrects))));
      Metrics.Flight.note pr.flight ~iter:it "phase.simulation";
      Trace.Sink.span_begin sink ~id:pr.sp_sim ~iter:it;
      simulation_phase ex net tp parties fc ch ~iter:it ~n_real;
      Trace.Sink.span_end sink ~id:pr.sp_sim ~iter:it;
      if params.Params.rewind then begin
        Metrics.Flight.note pr.flight ~iter:it "phase.rewind";
        Trace.Sink.span_begin sink ~id:pr.sp_rewind ~iter:it;
        rewind_phase ex net tp parties fc pr ~iter:it ~reqs:rewind_reqs ~depth:rewind_depth;
        Trace.Sink.span_end sink ~id:pr.sp_rewind ~iter:it
      end;
      (* Quiesce before the leader-side reads below (global stats, early
         stop, next iteration's prepass) — also folds any ragged drop
         tally into the network stats so per-iteration snapshots see it. *)
      Live.Exec.join ex;
      if observing then begin
        (* Deferred per-iteration tallies, all behind the one join the
           iteration already pays: everything read here went quiet when
           its phase ended (MP statuses freeze after the MP phase, the
           flag scratch after the flag phase, the rewind cells after the
           wave), so one quiesce covers the lot.  Values are global
           sums, not per-shard splits — the merged export stays
           byte-identical whatever the shard count. *)
        count_mp_transitions ~iter:it;
        let count_true a = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 a in
        let votes = count_true statuses and ok = count_true net_corrects in
        Trace.Sink.count sink ~id:pr.c_flag_votes ~iter:it votes;
        Trace.Sink.count sink ~id:pr.c_net_correct ~iter:it ok;
        Trace.Sink.count sink ~id:pr.c_idle ~iter:it (n - ok);
        if params.Params.rewind then begin
          let total = Array.fold_left ( + ) 0 rewind_reqs in
          if total > 0 then begin
            Trace.Sink.count sink ~id:pr.c_rewind_req ~iter:it total;
            Trace.Sink.gauge sink ~id:pr.g_rewind_depth ~iter:it
              (float_of_int (Array.fold_left max 0 rewind_depth))
          end
        end
      end;
      if config.Config.trace || observing || pr.m_on then begin
        (* Post-join: the leader reads party state quiesced, so this is
           safe on the parallel engine too (metrics do not force the
           serial engine the way an enabled trace sink does). *)
        let st = stats_of net parties graph ~iteration:it in
        if config.Config.trace then traces := st :: !traces;
        if observing || pr.m_on then begin
          (* The live Φ trajectory (proxy of §4.1; see potential.mli) and
             the per-iteration global progress gauges.  Lemma 4.2 says Φ
             must rise by K per iteration amortized — a [phi.stall] marks
             an iteration that fell short. *)
          let phi =
            Phi.eval Phi.default_constants ~k:params.Params.k ~m ~sum_g:st.sum_g
              ~sum_b:st.sum_b ~b_star:st.b_star ~corruptions:st.corruptions
          in
          if observing then begin
            Trace.Sink.gauge sink ~id:pr.g_phi ~iter:it phi;
            Trace.Sink.gauge sink ~id:pr.g_gstar ~iter:it (float_of_int st.g_star);
            Trace.Sink.gauge sink ~id:pr.g_bstar ~iter:it (float_of_int st.b_star)
          end;
          if pr.m_on then Metrics.Registry.set pr.m_phi_g phi;
          if
            (not (Float.is_nan !prev_phi))
            && phi -. !prev_phi < float_of_int params.Params.k -. 1e-9
          then begin
            Trace.Sink.count sink ~id:pr.c_phi_stall ~iter:it 1;
            Metrics.Registry.incr pr.m_phi_stall_c
          end;
          prev_phi := phi
        end
      end;
      Trace.Sink.span_end sink ~id:pr.sp_iter ~iter:it;
      (* Early stop is part of the loop condition, not a control-flow
         exception: done means every link's common prefix covers Π. *)
      if params.Params.early_stop && all_done parties graph ~n_real then continue_loop := false;
      incr iter
    done;
    if observing && config.Config.trace_sample_every > 1 then begin
      (* Leave every ring live for the output span (and the caller). *)
      Live.Exec.slice ex (fun w -> Trace.Sink.set_muted pr.rings.(w) false);
      Trace.Sink.set_muted sink false
    end;
    if !continue_loop && effective_iterations < iterations then
      Faults.Outcome.note diag
        (Printf.sprintf "iterations capped at %d of %d planned" effective_iterations iterations);
    (* ---- outputs ---- *)
    Trace.Sink.span_begin sink ~id:pr.sp_output ~iter:(-1);
    let outputs =
      Array.map
        (fun p ->
          let min_len =
            Array.fold_left (fun acc l -> min acc (Transcript.length l.tr)) max_int p.links
          in
          Replayer.output p.repl ~transcripts:(transcripts_fn graph p)
            ~upto:(min n_real min_len))
        parties
    in
    Trace.Sink.span_end sink ~id:pr.sp_output ~iter:(-1);
    let net_stats = Network.stats net in
    let cc = net_stats.Network.cc in
    let cc_pi = Pi.cc pi in
    {
      success = outputs = reference;
      outputs;
      reference;
      cc;
      cc_pi;
      rate_blowup = (if cc_pi = 0 then infinity else float_of_int cc /. float_of_int cc_pi);
      rounds = net_stats.Network.rounds;
      corruptions = net_stats.Network.corruptions;
      noise_fraction = net_stats.Network.noise_fraction;
      iterations_run = !iterations_run;
      chunks_total = n_real;
      exchange_failures = !exchange_failures;
      chunks_rewound =
        Array.fold_left
          (fun acc p ->
            Array.fold_left (fun acc l -> acc + Transcript.chunks_rewound l.tr) acc p.links)
          0 parties;
      trace = List.rev !traces;
    }
  in
  let fold_net () =
    diag.Faults.Outcome.iterations_run <- !iterations_run;
    diag.Faults.Outcome.iterations_planned <- !iterations_planned;
    diag.Faults.Outcome.wall_s <- Sys.time () -. t0;
    match !net_ref with
    | None -> ()
    | Some net ->
        let s = Network.stats net in
        diag.Faults.Outcome.stalled_slots <- s.Network.stalled;
        diag.Faults.Outcome.injected <- s.Network.injected
  in
  match body () with
  | result ->
      fold_net ();
      if Faults.Outcome.clean diag then begin
        Metrics.Registry.incr completed_c;
        Faults.Outcome.Completed result
      end
      else begin
        Metrics.Registry.incr degraded_c;
        Faults.Outcome.Degraded (result, diag)
      end
  | exception Abort reason ->
      fold_net ();
      Metrics.Registry.incr aborted_c;
      Metrics.Flight.note flight "scheme.abort";
      diag.Faults.Outcome.flight <- Metrics.Flight.dump flight;
      Faults.Outcome.Aborted (reason, diag)
  | exception e ->
      fold_net ();
      Metrics.Registry.incr aborted_c;
      Metrics.Flight.note flight "scheme.abort";
      diag.Faults.Outcome.flight <- Metrics.Flight.dump flight;
      Faults.Outcome.Aborted (Faults.Outcome.Internal_error (Printexc.to_string e), diag)

let run ?(config = Config.default) ~rng params pi adversary =
  match run_outcome ~config ~rng params pi adversary with
  | Faults.Outcome.Completed r | Faults.Outcome.Degraded (r, _) -> r
  | Faults.Outcome.Aborted (reason, _) ->
      failwith ("Scheme.run: " ^ Faults.Outcome.abort_to_string reason)
