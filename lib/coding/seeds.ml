type t = {
  stream : Hashing.Seed_stream.t;
  tau : int;
  wmax : int;
  slot : int;
  slots : int;
  block : int; (* words per (iteration, link slot) *)
}

let int_fields = 3
let prefix_fields = 2

let make ~stream ~tau ~wmax ~slot ~slots =
  assert (tau > 0 && wmax > 0 && slot >= 0 && slot < slots);
  { stream; tau; wmax; slot; slots; block = (int_fields * tau) + (prefix_fields * tau * wmax) }

let base t ~iter = ((iter * t.slots) + t.slot) * t.block

let hash_int t ~iter ~field v =
  assert (field >= 0 && field < int_fields);
  Hashing.Ip_hash.hash_int t.stream ~offset:(base t ~iter + (field * t.tau)) ~tau:t.tau v

let prefix_offset t ~iter ~field = base t ~iter + (int_fields * t.tau) + (field * t.tau * t.wmax)

let hash_prefix t ~iter ~field x ~bits =
  assert (field >= 0 && field < prefix_fields);
  assert (bits <= 64 * t.wmax);
  Hashing.Ip_hash.hash_prefix t.stream ~offset:(prefix_offset t ~iter ~field) ~tau:t.tau x ~bits

let prefix_bit_sensitivity t ~iter ~field ~total_bits ~pos =
  assert (field >= 0 && field < prefix_fields);
  assert (pos >= 0 && pos < total_bits);
  let offset = prefix_offset t ~iter ~field in
  let nw = max 1 ((total_bits + 63) / 64) in
  let mask = ref 0 in
  for j = 0 to t.tau - 1 do
    let w = Hashing.Seed_stream.word t.stream (offset + (j * nw) + (pos / 64)) in
    if Int64.logand (Int64.shift_right_logical w (pos mod 64)) 1L = 1L then
      mask := !mask lor (1 lsl j)
  done;
  !mask
