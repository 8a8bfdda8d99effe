type link_outcome = {
  lo_gen : Smallbias.Generator.t;
  hi_gen : Smallbias.Generator.t;
  ok : bool;
}

let payload_bytes = 16

(* Eager, not lazy: scheme runs execute on pool worker domains, and a
   top-level [lazy] forced concurrently is not domain-safe in OCaml 5.
   Building the code once at module init costs microseconds. *)
let code = Ecc.Concat.create ~payload_bytes ()

let rounds_needed () = Ecc.Concat.codeword_bits code

let seed_to_payload (a, b) =
  String.init 16 (fun i ->
      let w = if i < 8 then a else b in
      Char.chr (Int64.to_int (Int64.logand (Int64.shift_right_logical w (8 * (i mod 8))) 0xFFL)))

let payload_to_seed p =
  let word off =
    let w = ref 0L in
    for i = 7 downto 0 do
      w := Int64.logor (Int64.shift_left !w 8) (Int64.of_int (Char.code p.[off + i]))
    done;
    !w
  in
  (word 0, word 8)

(* Deterministic garbage seed from whatever bits arrived, for the case
   where decoding fails outright: the endpoint still needs *some*
   generator (its hashes will simply never match the peer's). *)
let fallback_seed received =
  let a = ref 0x0BADL and b = ref 0x5EEDL in
  Array.iteri
    (fun i slot ->
      let x = match slot with None -> 2 | Some false -> 0 | Some true -> 1 in
      let target = if i land 1 = 0 then a else b in
      target := Util.Rng.mix (Int64.add !target (Int64.of_int ((i * 4) + x))))
    received;
  (!a, !b)

let ev_failed = Trace.Sink.declare "exchange.failed"

let run ?(sink = Trace.Sink.disabled) net ~rng =
  let graph = Netsim.Network.graph net in
  let edges = Topology.Graph.edges graph in
  let m = Array.length edges in
  let seeds = Array.init m (fun _ -> (Util.Rng.int64 rng, Util.Rng.int64 rng)) in
  let codewords = Array.map (fun s -> Ecc.Concat.encode code (seed_to_payload s)) seeds in
  let nbits = Ecc.Concat.codeword_bits code in
  let received = Array.init m (fun _ -> Array.make nbits None) in
  (* One codeword bit per edge per round, always lower -> higher endpoint.
     Only the scheduled direction matters; inserted traffic on the reverse
     direction is ignored by the receiver. *)
  let active = Netsim.Network.active net in
  let lo_dir =
    Array.map (fun (u, v) -> Topology.Graph.dir_id graph ~src:(min u v) ~dst:(max u v)) edges
  in
  for r = 0 to nbits - 1 do
    Netsim.Network.Active.begin_round active;
    for e = 0 to m - 1 do
      Netsim.Network.Active.send active ~dir:lo_dir.(e) codewords.(e).(r)
    done;
    Netsim.Network.commit net active;
    for e = 0 to m - 1 do
      received.(e).(r) <- Netsim.Network.Active.get active ~dir:lo_dir.(e)
    done
  done;
  Array.init m (fun e ->
      let lo_gen = Smallbias.Generator.of_seed seeds.(e) in
      let decoded =
        match Ecc.Concat.decode code received.(e) with
        | Some payload -> payload_to_seed payload
        | None -> fallback_seed received.(e)
      in
      let ok = decoded = seeds.(e) in
      let hi_gen =
        if ok then Smallbias.Generator.fresh lo_gen else Smallbias.Generator.of_seed decoded
      in
      if not ok then Trace.Sink.count sink ~id:ev_failed ~arg:e 1;
      { lo_gen; hi_gen; ok })
