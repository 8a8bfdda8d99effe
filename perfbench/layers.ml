(* Per-layer numbers, taken from outside the library: timed calls into
   each layer's public functions on the workload's own inputs, plus the
   phase spans the scheme emits into a profiling trace sink, folded by
   [Obsv.Profile].  Every function returns (name, value, unit) rows. *)

module Network = Netsim.Network

let now = Measure.now

(* Median seconds of up to [reps] calls, stopping early once [budget]
   seconds are spent (the grid's layout takes seconds per call). *)
let seconds_per_call ?(reps = 5) ?(budget = 1.) f =
  let rec go i spent acc =
    if i >= reps || (i > 0 && spent >= budget) then Measure.median acc
    else begin
      let t0 = now () in
      f ();
      let dt = now () -. t0 in
      go (i + 1) (spent +. dt) (dt :: acc)
    end
  in
  go 0 0. []

(* Median nanoseconds per call over [batches] batches, each sized to run
   at least [min_s] so the clock's resolution does not matter. *)
let ns_per_call ?(batches = 5) ?(min_s = 0.04) f =
  let batch n =
    let t0 = now () in
    for _ = 1 to n do
      f ()
    done;
    now () -. t0
  in
  let rec calibrate n = if batch n >= min_s then n else calibrate (2 * n) in
  let n = calibrate 1 in
  Measure.median (List.init batches (fun _ -> 1e9 *. batch n /. float_of_int n))

type layout = { chunking : Protocol.Chunking.t; iterations : int; wmax : int }

(* The scheme's own layout step: chunk Π, then bound the transcript
   length at the horizon the scheme uses, n_real + planned iterations + 2. *)
let layout env =
  let iterations = Coding.Scheme.planned_iterations env.Workload.params env.Workload.pi in
  let make () =
    let chunking = Protocol.Chunking.make env.Workload.pi ~k:env.Workload.params.Coding.Params.k in
    let horizon = Protocol.Chunking.n_real chunking + iterations + 2 in
    { chunking; iterations; wmax = Protocol.Chunking.max_transcript_words chunking ~horizon }
  in
  let lay = make () in
  let s = seconds_per_call ~reps:3 ~budget:2. (fun () -> ignore (make ())) in
  (lay, [ ("protocol.chunking.layout_s", s, "s") ])

let protocol env =
  let t = env.Workload.set.(0) in
  [
    ( "protocol.pi.reference_s",
      seconds_per_call (fun () ->
          ignore (Protocol.Pi.run_noiseless env.Workload.pi ~inputs:t.Workload.inputs)),
      "s" );
  ]

(* A generator seeded from the workload's first trial, as the exchange
   would produce one. *)
let generator env =
  let r = Util.Rng.copy env.Workload.set.(0).Workload.rng in
  let a = Util.Rng.int64 r in
  let b = Util.Rng.int64 r in
  Smallbias.Generator.of_seed (a, b)

(* Seeds.hash_prefix / hash_int at the workload's τ, wmax and stream
   kind, over a full-transcript prefix: as many bits as link 0 serializes
   for all of Π's real chunks.  Successive calls walk the iterations, as
   the scheme does, so a δ-biased stream seeks once per call. *)
let hashing env lay =
  let spec = env.Workload.spec and params = env.Workload.params in
  let stream, slots =
    if spec.Workload.exchange then (Hashing.Seed_stream.biased (generator env), 1)
    else
      ( Hashing.Seed_stream.uniform ~key:(Util.Rng.int64 (Util.Rng.copy env.Workload.set.(0).Workload.rng)),
        Topology.Graph.m env.Workload.graph )
  in
  let seeds =
    Coding.Seeds.make ~stream ~tau:params.Coding.Params.tau ~wmax:lay.wmax ~slot:0 ~slots
  in
  let bits = ref 0 in
  for c = 1 to Protocol.Chunking.n_real lay.chunking do
    bits := !bits + Protocol.Chunking.serialized_chunk_bits lay.chunking ~chunk_index:c ~edge:0
  done;
  let bits = !bits in
  let x = Util.Bitvec.create () in
  let r = Util.Rng.create 7 in
  for _ = 1 to (bits + 63) / 64 do
    Util.Bitvec.push_int64 x (Util.Rng.int64 r)
  done;
  let it = ref 0 in
  let next () =
    incr it;
    !it mod lay.iterations
  in
  [
    ( "hashing.seeds.hash_prefix_ns",
      ns_per_call (fun () -> ignore (Coding.Seeds.hash_prefix seeds ~iter:(next ()) ~field:0 x ~bits)),
      "ns" );
    ( "hashing.seeds.hash_int_ns",
      ns_per_call (fun () ->
          let i = next () in
          ignore (Coding.Seeds.hash_int seeds ~iter:i ~field:(i mod Coding.Seeds.int_fields) i)),
      "ns" );
  ]

(* Sequential words, and seeks spread over the word range the scheme's
   seed layout spans on this workload. *)
let smallbias env lay =
  let g = generator env in
  let block =
    (Coding.Seeds.int_fields * env.Workload.params.Coding.Params.tau)
    + (Coding.Seeds.prefix_fields * env.Workload.params.Coding.Params.tau * lay.wmax)
  in
  let range = max 1 (lay.iterations * block) in
  let i = ref 0 in
  [
    ("smallbias.generator.next_word_ns", ns_per_call (fun () -> ignore (Smallbias.Generator.next_word g)), "ns");
    ( "smallbias.generator.seek_word_ns",
      ns_per_call (fun () ->
          i := (!i + 7919) mod range;
          Smallbias.Generator.seek_word g !i),
      "ns" );
  ]

let network env =
  Network.create env.Workload.graph env.Workload.set.(0).Workload.adversary

let exchange env =
  let t = env.Workload.set.(0) in
  [
    ( "coding.randomness_exchange.run_s",
      seconds_per_call (fun () ->
          ignore (Coding.Randomness_exchange.run (network env) ~rng:(Util.Rng.copy t.Workload.rng))),
      "s" );
  ]

(* One round with every directed link speaking (begin_round, 2m sends,
   commit) under the workload's adversary. *)
let netsim env =
  let net = network env in
  let act = Network.active net in
  let dirs = Network.Active.length act in
  [
    ( "netsim.network.commit_ns",
      ns_per_call (fun () ->
          Network.Active.begin_round act;
          for dir = 0 to dirs - 1 do
            Network.Active.send act ~dir (dir land 1 = 0)
          done;
          Network.commit net act),
      "ns" );
  ]

(* Empty-callback jobs plus a join on the parallel engine the live
   backend runs on this workload's graph (2 shards, d = 0): the
   Live.Exec/Barrier cost per round, whichever backend the trials use. *)
let live env =
  let g = env.Workload.graph in
  let config = Live.Config.make ~shards:2 ~ragged_d:0 () in
  let weights = Array.init (Topology.Graph.n g) (Topology.Graph.degree g) in
  let ex = Live.Exec.create ~net:(network env) ~config ~weights () in
  Fun.protect
    ~finally:(fun () -> Live.Exec.shutdown ex)
    (fun () ->
      let nop ~shard:_ _ = () in
      [
        ( "live.exec.round_join_ns",
          ns_per_call (fun () ->
              Live.Exec.round ex ~write:nop ~read:nop ();
              Live.Exec.join ex),
          "ns" );
        ( "live.exec.slice_join_ns",
          ns_per_call (fun () ->
              Live.Exec.slice ex ignore;
              Live.Exec.join ex),
          "ns" );
      ])

let micro env =
  let lay, layout_rows = layout env in
  layout_rows @ protocol env @ hashing env lay @ smallbias env lay @ exchange env @ netsim env
  @ live env

(* ---- the traced sweep ---- *)

let capacity = 1 lsl 18

type traced = {
  samples : Measure.sample list;
  spans : (string, float * float) Hashtbl.t;  (** span -> summed (wall_s, minor_words) *)
  dropped : int;
}

let traced_sweep ~keys env ~seconds =
  let sink = Trace.Sink.create ~capacity ~profile:true () in
  let spans = Hashtbl.create 16 in
  let dropped = ref 0 in
  let after _ =
    List.iter
      (fun r ->
        let w, mw =
          Option.value (Hashtbl.find_opt spans r.Obsv.Profile.name) ~default:(0., 0.)
        in
        Hashtbl.replace spans r.Obsv.Profile.name
          (w +. r.Obsv.Profile.wall_s, mw +. r.Obsv.Profile.minor_words))
      (Obsv.Profile.of_sink sink);
    dropped := !dropped + Trace.Sink.dropped sink;
    Trace.Sink.reset sink
  in
  let samples = Measure.sweep ~sink ~after ~keys env ~seconds in
  { samples; spans; dropped = !dropped }

let span_total tr name = Option.value (Hashtbl.find_opt tr.spans name) ~default:(0., 0.)
let per_trial_of tr x = x /. float_of_int (List.length tr.samples)
let per_trial tr name = per_trial_of tr (fst (span_total tr name))

(* Per-trial means of the scheme's phase spans, and what the scheme
   spends in a trial outside its iterations and its seed exchange. *)
let coding tr =
  let wall = per_trial tr and minor name = per_trial_of tr (snd (span_total tr name)) in
  let trial_wall = Measure.mean (Measure.walls tr.samples) in
  [
    ("prof.phase.meeting_points.wall_s", wall "phase.meeting_points", "s");
    ("prof.phase.meeting_points.minor_words", minor "phase.meeting_points", "words");
    ("prof.phase.simulation.wall_s", wall "phase.simulation", "s");
    ("prof.phase.simulation.minor_words", minor "phase.simulation", "words");
    ("prof.phase.flag_passing.wall_s", wall "phase.flag_passing", "s");
    ("prof.phase.rewind.wall_s", wall "phase.rewind", "s");
    ("prof.scheme.iteration.wall_s", wall "scheme.iteration", "s");
    ( "scheme.outside_iterations_s",
      trial_wall -. wall "scheme.iteration" -. wall "phase.exchange",
      "s" );
  ]

(* Useful work over attempts, rework, GC and scheduling, from the
   untraced sweep of the same trials. *)
let untraced samples =
  let n = float_of_int (List.length samples) in
  let per f = List.fold_left (fun acc s -> acc +. f s) 0. samples /. n in
  let first = Measure.results (Measure.first_pass samples) in
  let mean_r f = Measure.mean (List.map f first) in
  [
    ( "coding.iteration_yield",
      mean_r (fun r ->
          float_of_int r.Coding.Scheme.chunks_total /. float_of_int (max 1 r.Coding.Scheme.iterations_run)),
      "ratio" );
    ("coding.chunks_rewound_per_trial", mean_r (fun r -> float_of_int r.Coding.Scheme.chunks_rewound), "count");
    ("gc.minor_words_per_trial", per (fun s -> s.Measure.minor_words), "words");
    ("gc.promoted_words_per_trial", per (fun s -> s.Measure.promoted_words), "words");
    ("gc.minor_collections_per_trial", per (fun s -> float_of_int s.Measure.minor_collections), "count");
    ("gc.major_collections_per_trial", per (fun s -> float_of_int s.Measure.major_collections), "count");
    ("sched.wait_s_per_trial", per (fun s -> s.Measure.wall -. s.Measure.cpu), "s");
    ( "sched.reference_loop_s",
      Measure.median (List.map (fun s -> s.Measure.reference) samples),
      "s" );
    ( "live.cpu_per_wall",
      Measure.sum (List.map (fun s -> s.Measure.cpu) samples) /. Measure.sum (Measure.walls samples),
      "ratio" );
  ]
