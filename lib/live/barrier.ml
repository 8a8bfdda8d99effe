(* A sense-reversing barrier over OCaml 5 Atomics — no mutex, no
   condition variable on the hot path.  Arrivers decrement [count];
   the last one refills it and flips [sense], releasing the rest.
   Waiters spin on [sense] with [Domain.cpu_relax] for a bounded burst
   and then back off to short sleeps, so a 2-domain barrier stays
   usable even on a single hardware thread.

   Re-entry is safe: a non-last arriver can only return (and thus
   arrive again) after observing the flipped sense, at which point the
   last arriver has already refilled [count] for the next episode; the
   last arriver itself reads the post-flip sense when it next waits. *)

type t = {
  parties : int;
  count : int Atomic.t;
  sense : bool Atomic.t;
  mutable spins_h : Metrics.Registry.hist;
  mutable sleeps_c : Metrics.Registry.counter;
  mutable probe : bool;
  mutable yield : bool; (* oversubscribed: sleep early, spin barely *)
}

let create parties =
  if parties < 1 then invalid_arg "Live.Barrier.create: parties must be >= 1";
  {
    parties;
    count = Atomic.make parties;
    sense = Atomic.make false;
    spins_h = Metrics.Registry.hist Metrics.Registry.disabled "live.barrier.spins";
    sleeps_c = Metrics.Registry.counter Metrics.Registry.disabled "live.barrier.sleeps";
    probe = false;
    yield = false;
  }

let set_yield t b = t.yield <- b

(* Wait-spin counts are pure scheduling artifacts, never functions of
   the keyed execution — both metrics are Timed so the exact snapshot
   section stays byte-identical across shard and job counts. *)
let set_metrics t reg =
  t.spins_h <- Metrics.Registry.hist reg ~klass:Metrics.Registry.Timed "live.barrier.spins";
  t.sleeps_c <-
    Metrics.Registry.counter reg ~klass:Metrics.Registry.Timed "live.barrier.sleeps";
  t.probe <- Metrics.Registry.is_enabled reg

(* Spin until [cond] holds or [giveup] fires; shared with the job-log
   wait in Exec.  [cpu_relax] bursts keep latency low when a
   core is available; the sleep ladder keeps oversubscribed runs (more
   domains than cores) from starving the domain that must make
   progress.  In [yield] mode — the caller knows it is oversubscribed —
   spinning is counterproductive (the domain that must flip [cond]
   cannot run while we burn our timeslice), so the burst shrinks to a
   token probe and the ladder starts at the shortest sleep the kernel
   will honour and caps low, keeping wake latency bounded by timer
   slack rather than by the ladder's top rung. *)
let spin_core ?giveup ?(yield = false) ~spins ~sleeps cond =
  let relax_burst = if yield then 64 else 4096 in
  let sleep0 = if yield then 1e-6 else 2e-5 in
  let sleep_cap = if yield then 1e-4 else 1e-3 in
  let rec go sleep_s =
    if cond () then true
    else if (match giveup with Some g -> g () | None -> false) then false
    else begin
      let i = ref 0 in
      while (not (cond ())) && !i < relax_burst do
        Domain.cpu_relax ();
        incr i
      done;
      spins := !spins + !i;
      if cond () then true
      else begin
        Unix.sleepf sleep_s;
        incr sleeps;
        go (Float.min (sleep_s *. 2.) sleep_cap)
      end
    end
  in
  go sleep0

let spin_until ?giveup ?yield cond =
  let spins = ref 0 and sleeps = ref 0 in
  spin_core ?giveup ?yield ~spins ~sleeps cond

let await ?giveup ?last t =
  let my_sense = not (Atomic.get t.sense) in
  if Atomic.fetch_and_add t.count (-1) = 1 then begin
    (* Last arriver: run [last] while every other party still waits,
       refill for the next episode, then release. *)
    (match last with Some f -> f () | None -> ());
    Atomic.set t.count t.parties;
    Atomic.set t.sense my_sense;
    if t.probe then Metrics.Registry.observe t.spins_h 0;
    true
  end
  else begin
    let spins = ref 0 and sleeps = ref 0 in
    let released =
      spin_core ?giveup ~yield:t.yield ~spins ~sleeps (fun () -> Atomic.get t.sense = my_sense)
    in
    if t.probe then begin
      Metrics.Registry.observe t.spins_h !spins;
      if !sleeps > 0 then Metrics.Registry.add t.sleeps_c !sleeps
    end;
    released
  end
