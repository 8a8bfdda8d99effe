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
  mp_truncations : int;
  rewinds : int;
  mp_decided : int;
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
    inputs : int array option;
    spy_hook : (spy -> unit) option;
    faults : Faults.Plan.t;
    backend : backend;
  }

  let make ?(trace = false) ?(sink = Trace.Sink.disabled) ?inputs ?spy_hook
      ?(faults = Faults.Plan.empty) ?(backend = Lockstep) () =
    { trace; sink; inputs; spy_hook; faults; backend }

  let default = make ()
end

(* The scheme's trace events, declared once for the process.  With the
   disabled sink each probe site below reduces to one branch. *)
let sp_iter = Trace.Sink.declare "scheme.iteration"
let sp_prepass = Trace.Sink.declare "phase.fault_prepass"
let sp_mp = Trace.Sink.declare "phase.meeting_points"
let sp_flag = Trace.Sink.declare "phase.flag_passing"
let sp_sim = Trace.Sink.declare "phase.simulation"
let sp_rewind = Trace.Sink.declare "phase.rewind"
let sp_exchange = Trace.Sink.declare "phase.exchange"
let sp_output = Trace.Sink.declare "phase.output"
let c_mp_enter = Trace.Sink.declare "mp.enter"
let c_mp_exit = Trace.Sink.declare "mp.exit"
let c_mp_trunc = Trace.Sink.declare "mp.truncate"
let c_collision = Trace.Sink.declare "mp.hash_collision"
let c_flag_missing = Trace.Sink.declare "flag.missing"
let c_flag_votes = Trace.Sink.declare "flag.votes"
let c_net_correct = Trace.Sink.declare "flag.net_correct"
let c_idle = Trace.Sink.declare "sim.idle_parties"
let c_rewind_req = Trace.Sink.declare "rewind.requests"
let c_fault_crash = Trace.Sink.declare "fault.crash"
let c_fault_rejoin = Trace.Sink.declare "fault.rejoin"
let c_fault_seed_rot = Trace.Sink.declare "fault.seed_rot"
let c_fault_tr_rot = Trace.Sink.declare "fault.transcript_rot"
let c_phi_stall = Trace.Sink.declare "phi.stall"
let g_rewind_depth = Trace.Sink.declare "rewind.depth"
let g_phi = Trace.Sink.declare "phi"
let g_gstar = Trace.Sink.declare "progress.g_star"
let g_bstar = Trace.Sink.declare "progress.b_star"

(* Per-run probe state: the sink every probe site emits into, and the
   run's own tallies, returned in its result.  [truncs] and [rewinds]
   count MP truncations and rewound chunks so far, [mp_decided] the
   link ends whose MP step was decided without hashing; [mp_enter] and
   [mp_exit] count the links that entered and left meeting points in
   this iteration's MP phase, the only place a status changes; [phi] is
   the last Φ evaluated for the sink's gauge and [phi.stall] events,
   nan before the first. *)
type probes = {
  sink : Trace.Sink.t;
  mutable truncs : int;
  mutable rewinds : int;
  mutable mp_decided : int;
  mutable mp_enter : int;
  mutable mp_exit : int;
  mutable phi : float;
}

let make_probes sink =
  { sink; truncs = 0; rewinds = 0; mp_decided = 0; mp_enter = 0; mp_exit = 0; phi = Float.nan }

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
  record : Transcript.symbol array; (* this phase's chunk record, by event index; reused *)
  mutable mp_len : int; (* transcript length captured at MP-phase start *)
  memo : Mp_memo.t; (* the link's hash memo, shared with the peer end when it can be *)
  mutable probe : Meeting_points.probe option; (* collision probe; traced runs only *)
  hasher : Meeting_points.hasher; (* this end's oracle over [memo], built once *)
  mutable decided : bool; (* this iteration's MP step is decided without hashing *)
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

let iterations_of params n_real =
  (params.Params.iteration_factor * n_real) + params.Params.extra_iterations

let phase_round_counts params ch tree =
  let mp = 5 * params.Params.tau in
  let flag = if params.Params.flag_passing then Flag_passing.rounds_needed tree else 0 in
  let sim = 1 + Chunking.max_rounds ch in
  let rewind = Topology.Graph.n (Chunking.pi ch).Pi.graph in
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
   never rots that party's seeds), [rot.(id)] the mask it hashes under
   in this iteration's MP phase (0 unless its seeds rot there). *)
type fault_ctx = {
  plan : Faults.Plan.t;
  diag : Faults.Outcome.diagnosis;
  alive : bool array;
  rot_mask : int array;
  rot : int array;
}

(* The two ends of a link are in sync: both idle in meeting-points terms
   and their transcripts identical. *)
let in_sync a b =
  Meeting_points.status a.mp = Meeting_points.Simulate
  && Meeting_points.status b.mp = Meeting_points.Simulate
  && Transcript.length a.tr = Transcript.length b.tr
  && Transcript.same_prefix a.tr b.tr (Transcript.length a.tr)

(* ---------- phase executors ----------

   Each drives the network through the live execution engine (lib/live):
   a phase is a sequence of [Live.Exec.round]s (and one meeting-points
   [Live.Exec.block]) whose write callback submits every party's
   transmissions of the round (by precomputed dir index, into a sparse
   [Active] buffer) and whose read callback consumes the committed
   deliveries, with the no-network per-party work run directly between
   them.  One party loop per callback: the engine itself separates the
   sends of whatever lags under keyed jitter.  [recv_link]/[recv_party]
   resolve a delivered dir id to the receiving endpoint in O(1). *)

type transport = {
  recv_link : link_state array; (* dir -> link at the receiving endpoint *)
  recv_party : int array; (* dir -> receiving party id *)
}

(* Ground truth for the hash-collision probe: compare this endpoint's
   serialized transcript with the peer's copy of the same link, word by
   word ([Transcript.same_prefix], the test the shared hash memo makes).
   [None] when either side is already shorter than the position (the
   peer may have truncated earlier in this very phase).  Built once per
   link for a traced run; a collision is tagged with the iteration of
   the memo's phase. *)
let collision_probe graph parties sink l p =
  let peer_tr = (link_to graph parties.(l.peer) p.id).tr in
  Meeting_points.
    {
      truth =
        (fun ~pos ->
          if pos <= Transcript.length l.tr && pos <= Transcript.length peer_tr then
            Some (Transcript.same_prefix l.tr peer_tr pos)
          else None);
      on_collision =
        (fun ~pos -> Trace.Sink.count sink ~id:c_collision ~iter:(Mp_memo.iter l.memo) ~arg:pos 1);
    }

(* A decided end's message: any constant that fills every bit, since
   nobody reads it (its peer is decided too) and no noise lands on it. *)
let settled_msg = Meeting_points.{ hk = 0; hp1 = 0; hp2 = 0; ht1 = 0; ht2 = 0 }

(* The decided path: flag the links whose MP step is already fixed, so
   that neither end hashes.  A link qualifies when both ends are alive
   with intact seeds this iteration, share one memo (one seed stream),
   are in sync, and the block's noise touches neither of its dirs
   ([touched], from [Network.touched]); then prepare + process would
   exchange equal messages and keep ([Meeting_points.settle]).  The
   lower end sets both ends' flags, so every flag is reset in a pass of
   its own first: resetting an end as the setting pass reaches it would
   clear the flag its lower peer had just set. *)
let decide_links net tp parties fc ~touched ~rounds =
  Array.iter (fun p -> Array.iter (fun l -> l.decided <- false) p.links) parties;
  match touched with
  | None -> ()
  | Some touched ->
      Network.touched net ~rounds touched;
      for id = 0 to Array.length parties - 1 do
        let p = parties.(id) in
        if fc.alive.(id) && fc.rot.(id) = 0 then
          for i = 0 to Array.length p.links - 1 do
            let l = p.links.(i) in
            let q = tp.recv_link.(l.dir_out) in
            if
              id < l.peer && fc.alive.(l.peer) && fc.rot.(l.peer) = 0 && l.memo == q.memo
              && (not touched.(l.dir_out))
              && (not touched.(l.dir_in))
              && in_sync l q
            then begin
              l.decided <- true;
              q.decided <- true
            end
          done
      done

let meeting_points_phase ex net tp parties fc pr ~touched ~iter ~tau =
  pr.mp_enter <- 0;
  pr.mp_exit <- 0;
  (* Seed-rot accounting runs before the block (the rot decision is a
     pure keyed function), so the block's callbacks touch no run-wide
     books but the MP tallies. *)
  Array.iter
    (fun p ->
      let rots = fc.alive.(p.id) && Faults.Plan.seed_rot fc.plan ~party:p.id ~iteration:iter in
      fc.rot.(p.id) <- (if rots then fc.rot_mask.(p.id) else 0);
      if rots then
        Array.iter
          (fun _l ->
            fc.diag.Faults.Outcome.seed_rot <- fc.diag.Faults.Outcome.seed_rot + 1;
            Trace.Sink.count pr.sink ~id:c_fault_seed_rot ~iter ~arg:p.id 1)
          p.links)
    parties;
  let rounds = Meeting_points.message_bits ~tau in
  decide_links net tp parties fc ~touched ~rounds;
  (* [prepare] fixes every bit of a link's message before anything is
     received, so the 5τ rounds go out as one block: every party prepares
     its links' messages and packs them (word i of a link's block is
     field i of its message); once the block is delivered, every party
     decides its links' verdicts from the received words, parked in
     [mp_cut] — nobody truncates there.  Crashed parties neither write
     (their links go dark) nor read.  A decided end sends
     [settled_msg] (the same 5τ bits on the wire, so the same cc) and
     settles without hashing.

     Decide, then apply: when traced, the collision probe's ground
     truth reads the peer's transcript, so every link decides before any
     link truncates. *)
  Live.Exec.block ex
    ~label:(fun () -> Network.set_phase net ~iteration:iter ~phase:Netsim.Adversary.Meeting_points)
    ~width:tau ~rounds
    ~write:(fun out ->
      Array.iter
        (fun p ->
          if fc.alive.(p.id) then
            for i = 0 to Array.length p.links - 1 do
              let l = p.links.(i) in
              l.mp_len <- Transcript.length l.tr;
              if l.decided then Meeting_points.pack settled_msg out ~dir:l.dir_out
              else begin
                Mp_memo.start l.memo ~lower:(p.id < l.peer) ~iter ~rot:fc.rot.(p.id);
                Meeting_points.pack
                  (Meeting_points.prepare l.mp l.hasher ~len:l.mp_len)
                  out ~dir:l.dir_out
              end
            done)
        parties)
    ~read:(fun inw ->
      Array.iter
        (fun p ->
          if fc.alive.(p.id) then
            for i = 0 to Array.length p.links - 1 do
              let l = p.links.(i) in
              if l.decided then begin
                Meeting_points.settle l.mp ~len:l.mp_len;
                pr.mp_decided <- pr.mp_decided + 1
              end
              else begin
                let was_in = Meeting_points.status l.mp = Meeting_points.Meeting_points in
                l.mp_cut <-
                  (match
                     Meeting_points.process l.mp l.hasher ?probe:l.probe ~len:l.mp_len
                       (Meeting_points.unpack inw ~dir:l.dir_in)
                   with
                  | `Keep -> -1
                  | `Truncate_to x -> x);
                match (was_in, Meeting_points.status l.mp) with
                | false, Meeting_points.Meeting_points -> pr.mp_enter <- pr.mp_enter + 1
                | true, Meeting_points.Simulate -> pr.mp_exit <- pr.mp_exit + 1
                | _ -> ()
              end
            done)
        parties)
    ();
  Array.iter
    (fun p ->
      if fc.alive.(p.id) then
        Array.iter
          (fun l ->
            if l.mp_cut >= 0 then begin
              Trace.Sink.count pr.sink ~id:c_mp_trunc ~iter ~arg:p.id 1;
              pr.truncs <- pr.truncs + 1;
              Transcript.truncate l.tr l.mp_cut;
              l.mp_cut <- -1
            end)
          p.links)
    parties

let compute_statuses parties ~alive ~statuses =
  Array.iter
    (fun p ->
      let in_mp =
        Array.exists (fun l -> Meeting_points.status l.mp = Meeting_points.Meeting_points) p.links
      in
      let len0 = Transcript.length p.links.(0).tr in
      let equal_lens = Array.for_all (fun l -> Transcript.length l.tr = len0) p.links in
      statuses.(p.id) <- alive.(p.id) && (not in_mp) && equal_lens)
    parties

(* A participant's walk through its view of chunk [c]; [cur, stop) is left to play. *)
type walk = { p : party_state; c : int; mc : Pi.machine option; mutable cur : int; stop : int }

let simulation_phase ex net parties fc ch ~iter ~n_real =
  let max_r = Chunking.max_rounds ch in
  (* Participation — alive with netCorrect up — is known before the
     phase starts, so only participants reset their records and listen:
     idle parties cost this phase nothing.  (Stale records on idle
     parties are never read: every read below walks the participant
     list, and a party resets whenever it participates.) *)
  let acc = ref [] in
  Array.iter
    (fun p ->
      if fc.alive.(p.id) && p.net_correct then begin
        Array.iter
          (fun l ->
            l.bot <- false;
            Array.fill l.record 0 (Array.length l.record) Transcript.sym_star)
          p.links;
        let c =
          1 + Array.fold_left (fun acc l -> min acc (Transcript.length l.tr)) max_int p.links
        in
        let mc =
          if c <= n_real then
            Some (Replayer.machine_at p.repl ~transcripts:(fun j -> p.links.(j).tr) ~upto:(c - 1))
          else None
        in
        let cur, stop = Chunking.party_view ch ~chunk_index:c ~party:p.id in
        acc := { p; c; mc; cur; stop } :: !acc
      end)
    parties;
  let participants = List.rev !acc in
  (* ⊥ round: idling parties announce, participants listen (Line 16/23).
     Crashed parties announce nothing — their links just go dark. *)
  Live.Exec.round ex
    ~label:(fun () -> Network.set_phase net ~iteration:iter ~phase:Netsim.Adversary.Simulation)
    ~write:(fun ~shard:_ buf ->
      Array.iter
        (fun p ->
          if fc.alive.(p.id) && not p.net_correct then
            Array.iter (fun l -> Active.send buf ~dir:l.dir_out true) p.links)
        parties)
    ~read:(fun ~shard:_ master ->
      List.iter
        (fun s ->
          Array.iter
            (fun l -> if not (Active.is_silent master ~dir:l.dir_in) then l.bot <- true)
            s.p.links)
        participants)
    ();
  (* Each round plays the participants' sends of round [t], then their
     receives, off their views: [f s l r ev] gets the link, the Π round
     (-1 for padding) and the event index the symbol is recorded at. *)
  let play ~t ~send f =
    List.iter
      (fun s ->
        while
          s.cur < s.stop && Chunking.entry_round ch s.cur = t
          && Chunking.entry_is_send ch s.cur = send
        do
          f s s.p.links.(Chunking.entry_nbr ch s.cur)
            (Chunking.entry_pi_round ch ~chunk_index:s.c s.cur)
            (Chunking.entry_event ch s.cur);
          s.cur <- s.cur + 1
        done)
      participants
  in
  for t = 0 to max_r - 1 do
    (* Only real chunks have Π entries (r >= 0), and they have a machine.
       It still sends on a ⊥ link, so its state advances, but nothing
       goes out; it hears 0 there. *)
    Live.Exec.round ex
      ~write:(fun ~shard:_ buf ->
        play ~t ~send:true (fun s l r ev ->
            let bit = r >= 0 && (Option.get s.mc).Pi.send ~round:r ~dst:l.peer in
            if not l.bot then begin
              Active.send buf ~dir:l.dir_out bit;
              l.record.(ev) <- Transcript.sym_bit bit
            end))
      ~read:(fun ~shard:_ master ->
        play ~t ~send:false (fun s l r ev ->
            let got = Active.get master ~dir:l.dir_in in
            (match got with Some b -> l.record.(ev) <- Transcript.sym_bit b | None -> ());
            if r >= 0 then
              (Option.get s.mc).Pi.recv ~round:r ~src:l.peer
                ((not l.bot) && Option.value ~default:false got)))
      ()
  done;
  (* Push the recorded chunk on every non-⊥ link.  A participant's status
     required all its links to have equal length, and nothing truncates
     between [compute_statuses] and this phase, so every link records the
     participant's own chunk [c], laid out by [c]'s schedule. *)
  List.iter
    (fun s ->
      Array.iter
        (fun l ->
          if not l.bot then begin
            assert (Transcript.length l.tr + 1 = s.c);
            let n = Chunking.events_on_link ch ~chunk_index:s.c ~edge:l.edge in
            Transcript.push_chunk l.tr ~events:l.record ~len:n
          end)
        s.p.links;
      match s.mc with
      | Some mc when Array.for_all (fun l -> not l.bot) s.p.links ->
          Replayer.store s.p.repl ~machine:mc ~upto:s.c ~transcripts:(fun j -> s.p.links.(j).tr)
      | Some _ | None -> ())
    participants

let rewind_phase ex net tp parties fc pr ~iter ~depth =
  let n = Array.length parties in
  (* Wave shape for the trace: [pr.rewinds] counts every chunk rewound
     (self-initiated or honored request), cumulatively over the run;
     [depth] is the last round of this phase in which any link still
     moved. *)
  depth := 0;
  (* Only parties whose per-link state changed since their last
     evaluation can newly satisfy the send predicate: meeting-points
     statuses are frozen for the phase, [already_rewound] is monotone,
     and transcript lengths change only through a party's own
     truncations.  So the phase keeps a candidate set — initially every
     live party — re-admitting a party only when it truncates (as
     sender or as receiver of a request).  Rounds late in the wave cost
     O(new activity), not O(n · degree). *)
  let candidate = Array.make n false in
  let cur = ref [] and nxt = ref [] in
  let readmit id =
    if fc.alive.(id) && not candidate.(id) then begin
      candidate.(id) <- true;
      nxt := id :: !nxt
    end
  in
  for id = n - 1 downto 0 do
    if fc.alive.(id) then begin
      candidate.(id) <- true;
      cur := id :: !cur
    end
  done;
  for round = 1 to n do
    let label =
      if round = 1 then
        Some (fun () -> Network.set_phase net ~iteration:iter ~phase:Netsim.Adversary.Rewind)
      else None
    in
    Live.Exec.round ex ?label
      ~write:(fun ~shard:_ buf ->
        (* Plan sends from the state at round start (Line 27-31); the
           per-link truncation can be applied immediately because each
           link's decision reads only its own length against the party's
           min, which a single-chunk truncation of a longer link cannot
           lower. *)
        List.iter (fun id -> candidate.(id) <- false) !cur;
        nxt := [];
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
                  pr.rewinds <- pr.rewinds + 1;
                  depth := round;
                  sent := true
                end)
              p.links;
            if !sent then readmit id)
          !cur)
      ~read:(fun ~shard:_ master ->
        (* Any symbol received in a rewind round is a rewind request —
           insertions forge them, deletions suppress them (Line 33-38). *)
        Active.iter master (fun ~dir _bit ->
            let id = tp.recv_party.(dir) in
            if fc.alive.(id) then begin
              let l = tp.recv_link.(dir) in
              if
                Meeting_points.status l.mp <> Meeting_points.Meeting_points
                && not l.already_rewound
              then begin
                if Transcript.length l.tr > 0 then
                  Transcript.truncate l.tr (Transcript.length l.tr - 1);
                l.already_rewound <- true;
                pr.rewinds <- pr.rewinds + 1;
                depth := round;
                readmit id
              end
            end);
        cur := !nxt)
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

let planned_iterations params pi =
  let ch = Chunking.make pi ~k:params.Params.k in
  iterations_of params (Chunking.n_real ch)

let run_outcome ?(config = Config.default) ~rng params pi adversary =
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
  (* Where the run is: the iteration and span id of the phase it last
     entered, named in the diagnosis if the run aborts. *)
  let at_iter = ref (-1) and at_phase = ref (-1) in
  let t0 = Sys.time () in
  (* Installed once the network is wired: folds the network's fault
     books into the diagnosis. *)
  let close_books = ref ignore in
  let iterations_run = ref 0 in
  let iterations_planned = ref 0 in
  let body () =
    let reference = Pi.run_noiseless pi ~inputs in
    let ch = Chunking.make pi ~k:params.Params.k in
    let n_real = Chunking.n_real ch in
    let iterations = iterations_of params n_real in
    iterations_planned := iterations;
    let horizon = n_real + iterations + 2 in
    let wmax = Chunking.max_transcript_words ch ~horizon in
    let tree = Topology.Graph.bfs_tree graph in
    let net = Network.create graph adversary in
    Network.set_fault_hooks net (Faults.Plan.network_hooks plan);
    (* ---- execution engine ----
       The lockstep backend is the live engine's default (d = 0) —
       exactly the historical round loop. *)
    let live_cfg =
      match config.Config.backend with Lockstep -> Live.Config.default | Live c -> c
    in
    let weights = Array.init n (fun id -> Topology.Graph.degree graph id) in
    let ex = Live.Exec.create ~net ~config:live_cfg ~weights () in
    let sink = config.Config.sink in
    let observing = Trace.Sink.is_enabled sink in
    let pr = make_probes sink in
    (* Enter a phase: open its span, remember where the run is. *)
    let enter id ~iter =
      at_iter := iter;
      at_phase := id;
      Trace.Sink.span_begin sink ~id ~iter
    in
    Network.set_trace net sink;
    (close_books :=
       fun () ->
         let s = Network.stats net in
         diag.Faults.Outcome.stalled_slots <- s.Network.stalled;
         diag.Faults.Outcome.injected <- s.Network.injected);
    let flag_sched = Flag_passing.compile graph ~tree in
    let max_r = Chunking.max_rounds ch in
    (* Randomness: CRS or per-link exchange (Algorithm 5).  [same_stream
       edge]: both ends of [edge] hash with one seed stream. *)
    let exchange_failures = ref 0 in
    let seeds_for, same_stream =
      match params.Params.seed_mode with
      | Params.Crs ->
          let key = Util.Rng.int64 rng in
          ( (fun ~edge ~lower:_ ->
              Seeds.make ~stream:(Hashing.Seed_stream.uniform ~key) ~tau:params.Params.tau ~wmax
                ~slot:edge ~slots:m),
            fun _ -> true )
      | Params.Exchange ->
          Network.set_phase net ~iteration:(-1) ~phase:Netsim.Adversary.Exchange;
          enter sp_exchange ~iter:(-1);
          let outcomes = Randomness_exchange.run ~sink net ~rng in
          Trace.Sink.span_end sink ~id:sp_exchange ~iter:(-1);
          Array.iter
            (fun o -> if not o.Randomness_exchange.ok then incr exchange_failures)
            outcomes;
          ( (fun ~edge ~lower ->
              let o = outcomes.(edge) in
              let gen =
                if lower then o.Randomness_exchange.lo_gen else o.Randomness_exchange.hi_gen
              in
              Seeds.make ~stream:(Hashing.Seed_stream.biased gen) ~tau:params.Params.tau ~wmax
                ~slot:0 ~slots:1),
            fun edge -> outcomes.(edge).Randomness_exchange.ok )
    in
    (* One hash memo per link, shared by its two ends when they hold one
       stream; otherwise one per end.  The lower-id end is built first
       and makes the shared memo; [trs] holds every end's transcript by
       outgoing dir, so that memo can see the peer's. *)
    let trs = Array.init (2 * m) (fun _ -> Transcript.create ()) in
    let shared_memos = Array.make m None in
    let memo_for ~edge ~seeds ~tr ~dir_in =
      if same_stream edge then (
        match shared_memos.(edge) with
        | Some memo -> memo
        | None ->
            let memo = Mp_memo.shared seeds ~lo:tr ~hi:trs.(dir_in) in
            shared_memos.(edge) <- Some memo;
            memo)
      else Mp_memo.single seeds tr
    in
    let parties =
      Array.init n (fun id ->
          let neighbors = Topology.Graph.neighbors graph id in
          let links =
            Array.map
              (fun peer ->
                let edge = Topology.Graph.edge_id graph id peer in
                let dir_out = Topology.Graph.dir_id graph ~src:id ~dst:peer
                and dir_in = Topology.Graph.dir_id graph ~src:peer ~dst:id in
                let tr = trs.(dir_out) and seeds = seeds_for ~edge ~lower:(id < peer) in
                let memo = memo_for ~edge ~seeds ~tr ~dir_in in
                {
                  peer;
                  edge;
                  dir_out;
                  dir_in;
                  tr;
                  mp = Meeting_points.create ();
                  seeds;
                  already_rewound = false;
                  bot = false;
                  mp_cut = -1;
                  record = Array.make (2 * max_r) Transcript.sym_star;
                  mp_len = 0;
                  memo;
                  probe = None;
                  hasher = Mp_memo.hasher memo ~lower:(id < peer);
                  decided = false;
                })
              neighbors
          in
          {
            id;
            links;
            repl = Replayer.create ch ~party:id ~input:inputs.(id);
            net_correct = true;
          })
    in
    if observing then
      Array.iter
        (fun p ->
          Array.iter (fun l -> l.probe <- Some (collision_probe graph parties sink l p)) p.links)
        parties;
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
    let fc = { plan; diag; alive; rot_mask; rot = Array.make n 0 } in
    let have_faults = not (Faults.Plan.is_empty plan) in
    (* The decided MP path's touched-dir buffer, reused every iteration.
       Off under keyed jitter (d > 0): a lag moves bits between rounds,
       so no dir is known untouched before the block. *)
    let touched = if live_cfg.Live.Config.ragged_d = 0 then Some (Array.make (2 * m) false) else None in
    (* ---- adversary spy ---- *)
    let cur_iter = ref 0 in
    let flag_probe =
      if observing then
        Some
          Flag_passing.
            {
              on_missing =
                (fun ~node -> Trace.Sink.count sink ~id:c_flag_missing ~iter:!cur_iter ~arg:node 1);
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
          { tr_lo = l_lo.tr; tr_hi = l_hi.tr; seeds = l_lo.seeds; in_sync = in_sync l_lo l_hi }
        in
        hook { spy_chunking = ch; current_iteration = (fun () -> !cur_iter); edge_view });
    (* ---- main loop ---- *)
    let traces = ref [] in
    let continue_loop = ref true in
    let iter = ref 0 in
    (* Per-iteration scratch of the phase executors, one cell per
       party. *)
    let statuses = Array.make n false in
    let flag_agg = Array.make n false in
    let net_corrects = Array.make n false in
    let rewind_depth = ref 0 in
    let rewinds_traced = ref 0 in
    while !continue_loop && !iter < iterations do
      let it = !iter in
      enter sp_iter ~iter:it;
      iterations_run := it + 1;
      cur_iter := it;
      Log.debug (fun f ->
          let s = Network.stats net in
          f "iteration %d: cc=%d corruptions=%d" it s.Network.cc s.Network.corruptions);
      (* Party-state faults fire at iteration boundaries: crash windows
         are re-evaluated, recovering parties rejoin with transcripts
         truncated to half, and transcript rot flips one stored symbol of
         a keyed link/chunk choice. *)
      if have_faults then begin
        enter sp_prepass ~iter:it;
        for id = 0 to n - 1 do
          let p = parties.(id) in
          if Faults.Plan.rejoins plan ~party:id ~iteration:it then begin
            Array.iter (fun l -> Transcript.truncate l.tr (Transcript.length l.tr / 2)) p.links;
            diag.Faults.Outcome.rejoins <- diag.Faults.Outcome.rejoins + 1;
            Trace.Sink.count sink ~id:c_fault_rejoin ~iter:it ~arg:id 1;
            Faults.Outcome.note diag
              (Printf.sprintf "party %d rejoined at iteration %d with truncated transcripts" id
                 it)
          end;
          let down = Faults.Plan.crashed plan ~party:id ~iteration:it in
          if down && alive.(id) then begin
            Trace.Sink.count sink ~id:c_fault_crash ~iter:it ~arg:id 1;
            Faults.Outcome.note diag (Printf.sprintf "party %d crashed at iteration %d" id it)
          end;
          alive.(id) <- not down;
          if down then
            diag.Faults.Outcome.crashed_iterations <- diag.Faults.Outcome.crashed_iterations + 1;
          if (not down) && Faults.Plan.transcript_rot plan ~party:id ~iteration:it then begin
            let coord = Util.Rng.coord ~width:n it id in
            let li = Faults.Plan.choice plan ~salt:2 ~coord ~bound:(Array.length p.links) in
            let l = p.links.(li) in
            let len = Transcript.length l.tr in
            if len > 0 then begin
              let chunk = 1 + Faults.Plan.choice plan ~salt:3 ~coord ~bound:len in
              let events = Transcript.event_count l.tr chunk in
              if events > 0 then begin
                let event = Faults.Plan.choice plan ~salt:4 ~coord ~bound:events in
                Transcript.corrupt l.tr ~chunk ~event;
                Trace.Sink.count sink ~id:c_fault_tr_rot ~iter:it ~arg:id 1;
                diag.Faults.Outcome.transcript_rot <- diag.Faults.Outcome.transcript_rot + 1
              end
            end
          end
        done;
        Trace.Sink.span_end sink ~id:sp_prepass ~iter:it
      end;
      Array.iter (fun p -> Array.iter (fun l -> l.already_rewound <- false) p.links) parties;
      enter sp_mp ~iter:it;
      meeting_points_phase ex net tp parties fc pr ~touched ~iter:it ~tau:params.Params.tau;
      Trace.Sink.span_end sink ~id:sp_mp ~iter:it;
      compute_statuses parties ~alive ~statuses;
      enter sp_flag ~iter:it;
      if params.Params.flag_passing then
        Flag_passing.run_exec ~alive ?probe:flag_probe
          ~label:(fun () -> Network.set_phase net ~iteration:it ~phase:Netsim.Adversary.Flag)
          ex flag_sched ~statuses ~agg:flag_agg ~net_correct:net_corrects
      else Array.blit statuses 0 net_corrects 0 n;
      Trace.Sink.span_end sink ~id:sp_flag ~iter:it;
      Array.iter (fun p -> p.net_correct <- net_corrects.(p.id)) parties;
      Log.debug (fun f ->
            f "iteration %d: statuses=[%s] netCorrect=[%s]" it
              (String.concat ""
                 (List.map (fun s -> if s then "1" else "0") (Array.to_list statuses)))
              (String.concat ""
                 (List.map (fun s -> if s then "1" else "0") (Array.to_list net_corrects))));
      enter sp_sim ~iter:it;
      simulation_phase ex net parties fc ch ~iter:it ~n_real;
      Trace.Sink.span_end sink ~id:sp_sim ~iter:it;
      enter sp_rewind ~iter:it;
      rewind_phase ex net tp parties fc pr ~iter:it ~depth:rewind_depth;
      Trace.Sink.span_end sink ~id:sp_rewind ~iter:it;
      if observing then begin
        (* Per-iteration tallies: everything read here went quiet when
           its phase ended (MP statuses freeze after the MP phase, the
           flag scratch after the flag phase, the rewind tally after the
           wave).  Values are global sums. *)
        if pr.mp_enter > 0 then Trace.Sink.count sink ~id:c_mp_enter ~iter:it pr.mp_enter;
        if pr.mp_exit > 0 then Trace.Sink.count sink ~id:c_mp_exit ~iter:it pr.mp_exit;
        let count_true a = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 a in
        let votes = count_true statuses and ok = count_true net_corrects in
        Trace.Sink.count sink ~id:c_flag_votes ~iter:it votes;
        Trace.Sink.count sink ~id:c_net_correct ~iter:it ok;
        Trace.Sink.count sink ~id:c_idle ~iter:it (n - ok);
        (* The rewind tally is cumulative: this iteration's wave is the
           rise. *)
        let reqs = pr.rewinds - !rewinds_traced in
        rewinds_traced := pr.rewinds;
        if reqs > 0 then begin
          Trace.Sink.count sink ~id:c_rewind_req ~iter:it reqs;
          Trace.Sink.gauge sink ~id:g_rewind_depth ~iter:it (float_of_int !rewind_depth)
        end
      end;
      if config.Config.trace || observing then begin
        let st = stats_of net parties graph ~iteration:it in
        if config.Config.trace then traces := st :: !traces;
        if observing then begin
          (* The live Φ trajectory (proxy of §4.1; see potential.mli) and
             the per-iteration global progress gauges.  Lemma 4.2 says Φ
             must rise by K per iteration amortized — a [phi.stall] marks
             an iteration that fell short. *)
          let phi =
            Phi.eval Phi.default_constants ~k:params.Params.k ~m ~sum_g:st.sum_g
              ~sum_b:st.sum_b ~b_star:st.b_star ~corruptions:st.corruptions
          in
          Trace.Sink.gauge sink ~id:g_phi ~iter:it phi;
          Trace.Sink.gauge sink ~id:g_gstar ~iter:it (float_of_int st.g_star);
          Trace.Sink.gauge sink ~id:g_bstar ~iter:it (float_of_int st.b_star);
          if (not (Float.is_nan pr.phi)) && Phi.stall ~k:params.Params.k (phi -. pr.phi) then
            Trace.Sink.count sink ~id:c_phi_stall ~iter:it 1;
          pr.phi <- phi
        end
      end;
      Trace.Sink.span_end sink ~id:sp_iter ~iter:it;
      (* Early stop is part of the loop condition, not a control-flow
         exception: done means every link's common prefix covers Π. *)
      if params.Params.early_stop && all_done parties graph ~n_real then continue_loop := false;
      incr iter
    done;
    (* ---- outputs ---- *)
    enter sp_output ~iter:(-1);
    let outputs =
      Array.map
        (fun p ->
          let min_len =
            Array.fold_left (fun acc l -> min acc (Transcript.length l.tr)) max_int p.links
          in
          Replayer.output p.repl ~transcripts:(fun j -> p.links.(j).tr) ~upto:(min n_real min_len))
        parties
    in
    Trace.Sink.span_end sink ~id:sp_output ~iter:(-1);
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
      mp_truncations = pr.truncs;
      rewinds = pr.rewinds;
      mp_decided = pr.mp_decided;
      trace = List.rev !traces;
    }
  in
  (* The run's one booking point, on either outcome branch: the
     diagnosis is read from the run's books. *)
  let fold_books () =
    diag.Faults.Outcome.iterations_run <- !iterations_run;
    diag.Faults.Outcome.iterations_planned <- !iterations_planned;
    diag.Faults.Outcome.wall_s <- Sys.time () -. t0;
    !close_books ()
  in
  match body () with
  | result ->
      fold_books ();
      if Faults.Outcome.clean diag then Faults.Outcome.Completed result
      else Faults.Outcome.Degraded (result, diag)
  | exception e ->
      fold_books ();
      let phase = if !at_phase < 0 then "setup" else Trace.Sink.name !at_phase in
      Faults.Outcome.note diag
        (if !at_iter < 0 then "aborted during " ^ phase
         else Printf.sprintf "aborted in iteration %d during %s" !at_iter phase);
      Faults.Outcome.Aborted (Faults.Outcome.Internal_error (Printexc.to_string e), diag)

let run ?(config = Config.default) ~rng params pi adversary =
  match run_outcome ~config ~rng params pi adversary with
  | Faults.Outcome.Completed r | Faults.Outcome.Degraded (r, _) -> r
  | Faults.Outcome.Aborted (reason, _) ->
      failwith ("Scheme.run: " ^ Faults.Outcome.abort_to_string reason)
