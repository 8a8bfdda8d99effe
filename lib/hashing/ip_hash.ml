let max_tau = 30

let hash_prefix stream ~offset ~tau x ~bits =
  assert (tau > 0 && tau <= max_tau);
  assert (bits >= 0 && bits <= Util.Bitvec.length x);
  Seed_stream.inner_products stream ~offset ~tau (Util.Bitvec.backing x) ~bits

let hash stream ~offset ~tau x = hash_prefix stream ~offset ~tau x ~bits:(Util.Bitvec.length x)

let words_cost ~tau ~max_input_words = tau * max 1 max_input_words

let hash_int stream ~offset ~tau v =
  assert (tau > 0 && tau <= max_tau);
  Seed_stream.inner_products_int stream ~offset ~tau v
