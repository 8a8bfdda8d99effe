(* The Z3 code of silence (the paper's ∗); 0 and 1 are the bits. *)
let silent = 2

(* The sparse active-link buffer: per-round cost O(links that carry a
   symbol), not O(2m).  Each direction owns one word packing its 2-bit
   Z3 symbol lane next to the epoch that stamped it
   ([(epoch lsl 2) lor code]), so [begin_round] is O(1) (bump the
   epoch), membership is O(1) (compare the stamped epoch), a symbol
   write is a single store with no read-modify-write, and no per-round
   clearing of the 2m-slot space ever happens.  The [dirs] list records
   the touched directions for O(active) iteration; it is kept sorted
   lazily (phase drivers emit in ascending dir order, so the sort almost
   never runs outside noisy rounds). *)
module Active = struct
  type t = {
    len : int; (* 2m *)
    word : int array; (* dir -> (epoch lsl 2) lor code; stale iff epoch differs *)
    dirs : int array; (* touched dirs, first [n_active] entries *)
    mutable n_active : int;
    mutable epoch : int;
    mutable spoken : int; (* touched dirs currently holding a bit *)
    mutable sorted : bool;
  }

  let of_length two_m =
    {
      len = two_m;
      word = Array.make (max 1 two_m) 0;
      dirs = Array.make (max 1 two_m) 0;
      n_active = 0;
      epoch = 1;
      spoken = 0;
      sorted = true;
    }

  let create graph = of_length (2 * Topology.Graph.m graph)
  let length t = t.len

  (* The current Z3 symbol of a direction: silence unless stamped. *)
  let sym t ~dir =
    let w = t.word.(dir) in
    if w lsr 2 = t.epoch then w land 3 else silent

  let push t dir =
    if t.sorted && t.n_active > 0 && dir < t.dirs.(t.n_active - 1) then t.sorted <- false;
    t.dirs.(t.n_active) <- dir;
    t.n_active <- t.n_active + 1

  let write t ~dir c =
    let w = t.word.(dir) in
    let prev = if w lsr 2 = t.epoch then w land 3 else (push t dir; silent) in
    if prev = silent then begin
      if c <> silent then t.spoken <- t.spoken + 1
    end
    else if c = silent then t.spoken <- t.spoken - 1;
    t.word.(dir) <- (t.epoch lsl 2) lor c

  (* Epoch stamps share their word with the 2-bit symbol lane, so they
     wrap long before the native int does on 32-bit hosts and, more to
     the point, long-running live sessions must not rely on "63 bits is
     forever".  When the stamp space is exhausted the words are cleared
     once and the epoch restarts at 1 — an O(2m) event every 2^30
     rounds, amortised to nothing. *)
  let max_epoch = (1 lsl 30) - 1

  let begin_round t =
    if t.epoch >= max_epoch then begin
      Array.fill t.word 0 (Array.length t.word) 0;
      t.epoch <- 0
    end;
    t.epoch <- t.epoch + 1;
    t.n_active <- 0;
    t.spoken <- 0;
    t.sorted <- true

  (* Test hook: jump the epoch close to [max_epoch] to exercise the
     wraparound without running 2^30 rounds. *)
  let debug_set_epoch t e =
    if e < 1 || e > max_epoch then invalid_arg "Active.debug_set_epoch";
    t.epoch <- e

  (* The hot path — every speaking link goes through here every round,
     so it must stay competitive with a dense slot store: one word load
     (membership + previous symbol at once), one word store, and unsafe
     accesses once [dir] is range-checked. *)
  let send t ~dir bit =
    if dir < 0 || dir >= t.len then invalid_arg "Network.Active.send: dir out of range";
    let w = Array.unsafe_get t.word dir in
    if w lsr 2 = t.epoch then begin
      if w land 3 = silent then t.spoken <- t.spoken + 1
    end
    else begin
      if t.sorted && t.n_active > 0 && dir < Array.unsafe_get t.dirs (t.n_active - 1) then
        t.sorted <- false;
      Array.unsafe_set t.dirs t.n_active dir;
      t.n_active <- t.n_active + 1;
      t.spoken <- t.spoken + 1
    end;
    Array.unsafe_set t.word dir ((t.epoch lsl 2) lor (if bit then 1 else 0))

  let get t ~dir =
    match sym t ~dir with 0 -> Some false | 1 -> Some true | _ -> None

  let is_silent t ~dir = sym t ~dir = silent
  let count t = t.spoken

  let sort t =
    if not t.sorted then begin
      let sub = Array.sub t.dirs 0 t.n_active in
      Array.sort compare sub;
      Array.blit sub 0 t.dirs 0 t.n_active;
      t.sorted <- true
    end

  (* Every entry of [dirs] was stamped this epoch and words only change
     within an epoch, so the per-dir epoch check is not needed here. *)
  let iter t f =
    sort t;
    for i = 0 to t.n_active - 1 do
      let dir = Array.unsafe_get t.dirs i in
      match Array.unsafe_get t.word dir land 3 with
      | 0 -> f ~dir false
      | 1 -> f ~dir true
      | _ -> ()
    done
end

(* A block of rounds known upfront: per directed link, the symbols of
   [width * fields] successive rounds as [fields] words, round t in bit
   (t mod width) of word t / width.  [ones] holds the 1 bits, [heard]
   the bits that carry a symbol at all (so [ones] is a subset of
   [heard]; silence is a 0 in both).  Word [field] of [dir] lives at
   [dir * fields + field] in both arrays. *)
module Block = struct
  type t = { len : int; width : int; fields : int; ones : int array; heard : int array }

  let create graph ~width ~fields =
    let len = 2 * Topology.Graph.m graph in
    if width < 1 || width >= Sys.int_size then invalid_arg "Network.Block: width out of range";
    if fields < 1 then invalid_arg "Network.Block: fields < 1";
    let words = max 1 (len * fields) in
    { len; width; fields; ones = Array.make words 0; heard = Array.make words 0 }

  let width t = t.width
  let fields t = t.fields
  let mask t = (1 lsl t.width) - 1

  let index t ~dir ~field =
    if dir < 0 || dir >= t.len then invalid_arg "Network.Block: dir out of range";
    if field < 0 || field >= t.fields then invalid_arg "Network.Block: field out of range";
    (dir * t.fields) + field

  let set t ~dir ~field w =
    let i = index t ~dir ~field in
    let m = mask t in
    t.ones.(i) <- w land m;
    t.heard.(i) <- m

  let silence t ~dir =
    let i = index t ~dir ~field:0 in
    for j = i to i + t.fields - 1 do
      t.ones.(j) <- 0;
      t.heard.(j) <- 0
    done

  let word t ~dir ~field = t.ones.(index t ~dir ~field)
  let heard t ~dir ~field = t.heard.(index t ~dir ~field)

  (* Round [round] of [dir] is bit [round mod width] of this word. *)
  let slot t ~dir ~round =
    if round < 0 || round >= t.width * t.fields then
      invalid_arg "Network.Block: round out of range";
    index t ~dir ~field:(round / t.width)

  let get t ~dir ~round =
    let i = slot t ~dir ~round and bit = 1 lsl (round mod t.width) in
    if t.heard.(i) land bit = 0 then None else Some (t.ones.(i) land bit <> 0)

  let send t ~dir ~round b =
    let i = slot t ~dir ~round and bit = 1 lsl (round mod t.width) in
    t.heard.(i) <- t.heard.(i) lor bit;
    t.ones.(i) <- (if b then t.ones.(i) lor bit else t.ones.(i) land lnot bit)

  (* Z3 code of the slot at word [i], bit [bit], and its overwrite. *)
  let sym t i bit =
    if Array.unsafe_get t.heard i land bit = 0 then silent
    else if Array.unsafe_get t.ones i land bit = 0 then 0
    else 1

  let write t i bit c =
    if c = silent then begin
      t.heard.(i) <- t.heard.(i) land lnot bit;
      t.ones.(i) <- t.ones.(i) land lnot bit
    end
    else begin
      t.heard.(i) <- t.heard.(i) lor bit;
      t.ones.(i) <- (if c = 1 then t.ones.(i) lor bit else t.ones.(i) land lnot bit)
    end

  (* [dst] := [src] cut to its first [rounds] rounds.  A loop over
     [int array]s stores without a write barrier; [Array.blit] into a
     major-heap array would pay one per word. *)
  let deliver src dst ~rounds =
    let full = rounds / src.width and part = rounds mod src.width in
    let last = (1 lsl part) - 1 in
    for i = 0 to Array.length src.ones - 1 do
      let f = i mod src.fields in
      let m = if f < full then mask src else if f = full then last else 0 in
      Array.unsafe_set dst.ones i (Array.unsafe_get src.ones i land m);
      Array.unsafe_set dst.heard i (Array.unsafe_get src.heard i land m)
    done

  (* Bits set in a word below 2^62 (SWAR). *)
  let popcount x =
    let x = x - ((x lsr 1) land 0x1555555555555555) in
    let x = (x land 0x3333333333333333) + ((x lsr 2) land 0x3333333333333333) in
    let x = (x + (x lsr 4)) land 0x0F0F0F0F0F0F0F0F in
    (x * 0x0101010101010101) lsr 56

  (* Symbols carried over all rounds. *)
  let spoken t =
    let c = ref 0 in
    for i = 0 to Array.length t.heard - 1 do
      c := !c + popcount (Array.unsafe_get t.heard i)
    done;
    !c

  (* Directions carrying a symbol in the round at word offset [f], bit [bit]. *)
  let count_at t f bit =
    let c = ref 0 in
    for d = 0 to t.len - 1 do
      if Array.unsafe_get t.heard ((d * t.fields) + f) land bit <> 0 then incr c
    done;
    !c
end

type stats = {
  rounds : int;
  cc : int;
  corruptions : int;
  noise_fraction : float;
  stalled : int;
  injected : int;
}

(* Environment faults beyond the adversary's accounted budget — forced
   link silence, overload noise, budget scaling — injected by the fault
   engine (lib/faults).  Kept distinct from the adversary so that
   [corruptions]/[noise_fraction] keep meaning "budgeted model noise"
   while [stalled]/[injected] book the out-of-model events. *)
type fault_hooks = {
  stall : round:int -> dir:int -> bool;
  extra_addend : round:int -> dir:int -> int;
  budget_scale : round:int -> float;
}

(* The network's trace events, declared once for the process. *)
let ev_corrupt = Trace.Sink.declare "net.corrupt"
let ev_injected = Trace.Sink.declare "net.injected"
let ev_stalled = Trace.Sink.declare "net.stalled"

type t = {
  graph : Topology.Graph.t;
  adversary : Adversary.t;
  mutable round_no : int;
  mutable cc : int;
  mutable corruptions : int;
  mutable stalled : int;
  mutable injected : int;
  mutable faults : fault_hooks option;
  mutable iteration : int;
  mutable phase : Adversary.phase;
  (* Per-round dedup stamps for adaptive corruption requests. *)
  adv_stamp : int array;
  mutable adv_epoch : int;
  (* Trace probes.  The sink defaults to the disabled singleton, so the
     probe sites below cost one branch per corrupted slot and nothing on
     clean slots. *)
  mutable trace : Trace.Sink.t;
  (* The oblivious rows [touched] drew, for rounds [rows_from] to
     [rows_from + rows_n - 1]: [transform] reads them rather than draw
     them again (a pattern is pure, so a drawn row is the row). *)
  mutable rows : (int * int) list array;
  mutable rows_from : int;
  mutable rows_n : int;
}

let create graph adversary =
  let two_m = 2 * Topology.Graph.m graph in
  Logging.Log.debug (fun m ->
      m "create: n=%d m=%d (%d directed link slots)" (Topology.Graph.n graph)
        (Topology.Graph.m graph) two_m);
  {
    graph;
    adversary;
    round_no = 0;
    cc = 0;
    corruptions = 0;
    stalled = 0;
    injected = 0;
    faults = None;
    iteration = -1;
    phase = Adversary.Idle;
    adv_stamp = Array.make (max 1 two_m) 0;
    adv_epoch = 0;
    trace = Trace.Sink.disabled;
    rows = [||];
    rows_from = 0;
    rows_n = 0;
  }

let two_m t = 2 * Topology.Graph.m t.graph
let graph t = t.graph
let active t = Active.of_length (two_m t)
let link_ends t ~dir = Topology.Graph.dir_ends t.graph dir
let set_fault_hooks t hooks =
  Logging.Log.debug (fun m ->
      m "fault hooks %s" (match hooks with None -> "cleared" | Some _ -> "installed"));
  t.faults <- hooks

let set_trace t sink = t.trace <- sink

let noise_fraction t = if t.cc = 0 then 0. else float_of_int t.corruptions /. float_of_int t.cc

let set_phase t ~iteration ~phase =
  t.iteration <- iteration;
  t.phase <- phase

(* An adaptive strategy's view of the round: (dir, bit) in ascending
   dir order. *)
let sends_of_active (act : Active.t) =
  let acc = ref [] in
  Active.iter act (fun ~dir bit -> acc := (dir, bit) :: !acc);
  List.rev !acc

(* Adaptive budget for this round. *)
let adaptive_budget t budget =
  let scale =
    match t.faults with
    | None -> 1.
    | Some h -> Float.max 1. (h.budget_scale ~round:t.round_no)
  in
  let b = budget t.cc in
  (* Stay in integers when unscaled: budgets like [max_int] do not
     survive a float round-trip. *)
  let b = if scale = 1. then b else int_of_float (Float.min (scale *. float_of_int b) 4e18) in
  max 0 (b - t.corruptions)

(* The slots of the round being transformed, over either buffer: [sym]
   and [write] read and overwrite one direction's Z3 code, [sends] lists
   the parties' transmissions of the round (before any corruption) in
   ascending dir order.  Static records of top-level functions, so a
   round allocates no closure to reach its slots. *)
type 'b slots = {
  sym : 'b -> dir:int -> int;
  write : 'b -> dir:int -> int -> unit;
  sends : 'b -> (int * bool) list;
}

let active_slots = { sym = Active.sym; write = Active.write; sends = sends_of_active }

(* One round of a block: the parties' words [b_out], the delivered words
   [b_in] being transformed, and the round's word offset and bit. *)
type block_round = { b_out : Block.t; b_in : Block.t; mutable b_field : int; mutable b_bit : int }

let block_slots =
  {
    sym = (fun v ~dir -> Block.sym v.b_in ((dir * v.b_in.Block.fields) + v.b_field) v.b_bit);
    write =
      (fun v ~dir c -> Block.write v.b_in ((dir * v.b_in.Block.fields) + v.b_field) v.b_bit c);
    sends =
      (fun v ->
        let o = v.b_out and acc = ref [] in
        for dir = o.Block.len - 1 downto 0 do
          let i = (dir * o.Block.fields) + v.b_field in
          if o.Block.heard.(i) land v.b_bit <> 0 then
            acc := (dir, o.Block.ones.(i) land v.b_bit <> 0) :: !acc
        done;
        !acc);
  }

let corrupt t sl buf ~dir a =
  t.corruptions <- t.corruptions + 1;
  sl.write buf ~dir ((sl.sym buf ~dir + a) mod 3);
  Trace.Sink.count t.trace ~id:ev_corrupt ~iter:t.round_no ~arg:dir 1

(* Apply a round's oblivious row in its ascending dir order.  An
   additive entry carries its addend (1 or 2); a fixing entry the symbol
   it forces, translated into the addend that forces it: forcing the
   honest symbol yields addend 0 and is free (Remark 1). *)
let rec apply_row t sl buf ~two_m ~fixing ~prev = function
  | [] -> ()
  | (d, v) :: rest ->
      if d <= prev || d >= two_m || v < (if fixing then 0 else 1) || v > 2 then
        invalid_arg "Network: oblivious pattern entry out of order or out of range";
      let a = if fixing then ((v - sl.sym buf ~dir:d) mod 3 + 3) mod 3 else v in
      if a <> 0 then corrupt t sl buf ~dir:d a;
      apply_row t sl buf ~two_m ~fixing ~prev:d rest

(* The one transform of a network round (§2.1), once its sends are
   booked: the adversary is queried and its corruptions applied in
   ascending dir order, then the fault hooks run.  An oblivious pattern
   hands over the round's row of e as its nonzero entries (or [touched]
   drew it already), so applying it costs only the hits; producing the
   row is the pattern's own cost (one inlined draw per slot for iid,
   only its own slots for burst and single).  Installed fault hooks are
   queried on all 2m directions.  Adaptive adversaries are naturally
   sparse: the strategy returns the corruption list outright. *)
let row t pattern ~two_m =
  let i = t.round_no - t.rows_from in
  if i >= 0 && i < t.rows_n then t.rows.(i) else pattern ~round:t.round_no ~two_m

let transform t sl buf =
  let two_m = two_m t in
  (match t.adversary with
  | Adversary.Silent -> ()
  | Adversary.Oblivious pattern ->
      apply_row t sl buf ~two_m ~fixing:false ~prev:(-1) (row t pattern ~two_m)
  | Adversary.Oblivious_fixing pattern ->
      apply_row t sl buf ~two_m ~fixing:true ~prev:(-1) (row t pattern ~two_m)
  | Adversary.Adaptive { budget; strategy } ->
      let budget_left = adaptive_budget t budget in
      let ctx =
        Adversary.
          {
            round = t.round_no;
            iteration = t.iteration;
            phase = t.phase;
            graph = t.graph;
            cc_sent = t.cc;
            corruptions = t.corruptions;
            budget_left;
            sends = sl.sends buf;
          }
      in
      (* Accept requests in strategy order (budget + dedup), then apply
         in ascending dir order, so corruption counters and trace events
         do not depend on the order the strategy listed them in. *)
      t.adv_epoch <- t.adv_epoch + 1;
      let left = ref budget_left in
      let accepted = ref [] in
      List.iter
        (fun (d, a) ->
          if
            d >= 0 && d < two_m && (a = 1 || a = 2)
            && t.adv_stamp.(d) <> t.adv_epoch
            && !left > 0
          then begin
            t.adv_stamp.(d) <- t.adv_epoch;
            accepted := (d, a) :: !accepted;
            decr left
          end)
        (strategy ctx);
      List.iter (fun (d, a) -> corrupt t sl buf ~dir:d a) (List.sort compare !accepted));
  (* Environment faults land after the adversary: overload noise is
     extra corruption on top of whatever the budgeted pattern did, and a
     stalled link wins over everything (the slot goes dark). *)
  (match t.faults with
  | None -> ()
  | Some h ->
      for d = 0 to two_m - 1 do
        let a = h.extra_addend ~round:t.round_no ~dir:d in
        if a <> 0 then begin
          t.injected <- t.injected + 1;
          sl.write buf ~dir:d ((sl.sym buf ~dir:d + a) mod 3);
          Trace.Sink.count t.trace ~id:ev_injected ~iter:t.round_no ~arg:d 1
        end;
        if sl.sym buf ~dir:d <> silent && h.stall ~round:t.round_no ~dir:d then begin
          t.stalled <- t.stalled + 1;
          sl.write buf ~dir:d silent;
          Trace.Sink.count t.trace ~id:ev_stalled ~iter:t.round_no ~arg:d 1
        end
      done);
  t.round_no <- t.round_no + 1

(* A round on the sparse buffer: the Silent-adversary, hook-free path
   touches only the active links. *)
let commit t (act : Active.t) =
  if Active.length act <> two_m t then invalid_arg "Network.commit: buffer length mismatch";
  t.cc <- t.cc + Active.count act;
  transform t active_slots act

(* [rounds] successive rounds whose sends are all known upfront.  The
   delivered words start as a copy of the sent ones; unless the
   adversary is silent and no hook is installed (a word copy and a
   popcount, then), each round is booked and transformed exactly as
   [commit] would: same queries in the same (round, dir) order, same
   books, same events. *)
let commit_block t ~rounds ~(out : Block.t) ~(inw : Block.t) =
  let two_m = two_m t in
  if out.Block.len <> two_m || inw.Block.len <> two_m then
    invalid_arg "Network.commit_block: block length mismatch";
  if out.Block.width <> inw.Block.width || out.Block.fields <> inw.Block.fields then
    invalid_arg "Network.commit_block: block shape mismatch";
  if rounds < 0 || rounds > out.Block.width * out.Block.fields then
    invalid_arg "Network.commit_block: rounds out of range";
  Block.deliver out inw ~rounds;
  match (t.adversary, t.faults) with
  | Adversary.Silent, None ->
      t.cc <- t.cc + Block.spoken inw;
      t.round_no <- t.round_no + rounds
  | _ ->
      let v = { b_out = out; b_in = inw; b_field = 0; b_bit = 1 } in
      for r = 0 to rounds - 1 do
        v.b_field <- r / out.Block.width;
        v.b_bit <- 1 lsl (r mod out.Block.width);
        t.cc <- t.cc + Block.count_at out v.b_field v.b_bit;
        transform t block_slots v
      done

(* The dirs the next [rounds] rounds may alter, read from the same
   sources [transform] reads: the oblivious rows, kept for [transform],
   and the keyed fault hooks.  An adaptive strategy reads the sent
   bits, so it may touch every dir.  A source that raises, or a row
   entry out of range, marks every dir: the commit then raises at the
   round it always did (only the rows drawn whole are kept). *)
let touched t ~rounds buf =
  let two_m = two_m t in
  if Array.length buf <> two_m then invalid_arg "Network.touched: buffer length mismatch";
  Array.fill buf 0 two_m false;
  if Array.length t.rows < rounds then t.rows <- Array.make rounds [];
  t.rows_from <- t.round_no;
  t.rows_n <- 0;
  let mark (d, _) = if d < 0 || d >= two_m then raise Exit else buf.(d) <- true in
  try
    for r = t.round_no to t.round_no + rounds - 1 do
      (match t.adversary with
      | Adversary.Silent -> ()
      | Adversary.Oblivious pattern | Adversary.Oblivious_fixing pattern ->
          let row = pattern ~round:r ~two_m in
          t.rows.(t.rows_n) <- row;
          t.rows_n <- t.rows_n + 1;
          List.iter mark row
      | Adversary.Adaptive _ -> raise Exit);
      match t.faults with
      | None -> ()
      | Some h ->
          for d = 0 to two_m - 1 do
            if h.extra_addend ~round:r ~dir:d <> 0 || h.stall ~round:r ~dir:d then buf.(d) <- true
          done
    done
  with _ -> Array.fill buf 0 two_m true

(* Jitter noise booked by the live backend (lib/live): a symbol delayed
   past the round it was written for is a deletion (stalled); the
   delayed symbol surfacing in a later round is an insertion.
   Routed through the same counters and trace ids as the fault engine so
   postmortems and Φ gauges attribute ragged-synchrony noise exactly
   like environment faults. *)
let note_stalled t ~dir =
  t.stalled <- t.stalled + 1;
  Trace.Sink.count t.trace ~id:ev_stalled ~iter:t.round_no ~arg:dir 1

let note_injected t ~dir =
  t.injected <- t.injected + 1;
  Trace.Sink.count t.trace ~id:ev_injected ~iter:t.round_no ~arg:dir 1

let stats t =
  {
    rounds = t.round_no;
    cc = t.cc;
    corruptions = t.corruptions;
    noise_fraction = noise_fraction t;
    stalled = t.stalled;
    injected = t.injected;
  }
