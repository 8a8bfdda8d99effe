type t =
  | Uniform of int64
  | Biased of Smallbias.Generator.t
  | Explicit of int64 array

let uniform ~key = Uniform key
let biased gen = Biased gen
let explicit words = Explicit words

let negative () = invalid_arg "Seed_stream: negative index"

(* Sequential reads advance the generator's cursor for free; any other
   read seeks. *)
let word t i =
  if i < 0 then negative ();
  match t with
  | Uniform key -> Util.Rng.at ~seed:key i
  | Explicit a -> if i < Array.length a then a.(i) else 0L
  | Biased gen ->
      if Smallbias.Generator.word_index gen <> i then Smallbias.Generator.seek_word gen i;
      Smallbias.Generator.next_word gen

(* ---------- the inner-product kernel ----------

   Every helper below is [@inline], and [int64] values live only inside
   the kernel loops, where ocamlopt keeps them unboxed (mutable [int64]
   locals included): a call into another module, or to any function
   that is not inlined, would box each 64-bit word it returns.  A
   δ-biased hash is one [Generator.reduce] and one [Generator.parities]
   call, which take the input buffer and native ints and return native
   ints. *)

(* Word [w] of a {!Util.Bitvec.backing} buffer, read without a bounds
   check: [inner_products] checks the range once per call. *)
external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external swap64 : int64 -> int64 = "%bswap_int64"

let[@inline] input_word x w =
  let v = get64u x (8 * w) in
  if Sys.big_endian then swap64 v else v

(* The SplitMix64 stream of [Util.Rng.at], restated so that it inlines:
   word [i] of the stream keyed by [key] is [mix (key + (i + 1) γ)], so
   a reader of consecutive words just advances a counter by γ. *)
let[@inline] advance z = Int64.add z 0x9E3779B97F4A7C15L

let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* The counter just before word [i]: [advance] it to read word [i]. *)
let[@inline] counter key i = Int64.add key (Int64.mul (Int64.of_int i) 0x9E3779B97F4A7C15L)

(* Parity (0/1) of the 64 bits of [z], folded in native ints. *)
let[@inline] parity64 z =
  let p = Int64.to_int (Int64.logxor z (Int64.shift_right_logical z 32)) in
  let p = p lxor (p lsr 16) in
  let p = p lxor (p lsr 8) in
  (0x6996 lsr ((p lxor (p lsr 4)) land 0xF)) land 1

(* Slab j covers seed words [offset + j·nw, offset + (j+1)·nw): the
   slabs are contiguous, so the words are read in index order. *)
let inner_products t ~offset ~tau x ~bits =
  if offset < 0 then negative ();
  let nw = (bits + 63) / 64 in
  if bits < 0 || nw > Bytes.length x / 8 then invalid_arg "Seed_stream.inner_products: bits";
  if nw = 0 then 0
  else begin
    let last = nw - 1 in
    (* The last input word, with its bits from [bits] on cleared. *)
    let xlast =
      Int64.logand (input_word x last)
        (Int64.shift_right_logical (-1L) ((64 - (bits land 63)) land 63))
    in
    let out = ref 0 in
    (match t with
    | Uniform key ->
        let ctr = ref (counter key offset) in
        for j = 0 to tau - 1 do
          let acc = ref 0L in
          for w = 0 to last - 1 do
            ctr := advance !ctr;
            acc := Int64.logxor !acc (Int64.logand (input_word x w) (mix !ctr))
          done;
          ctr := advance !ctr;
          acc := Int64.logxor !acc (Int64.logand xlast (mix !ctr));
          out := !out lor (parity64 !acc lsl j)
        done
    | Biased gen ->
        let last_lo = Int64.to_int xlast land 0xFFFF_FFFF in
        let last_hi = Int64.to_int (Int64.shift_right_logical xlast 32) in
        let r = Smallbias.Generator.reduce gen x ~n:nw ~last_lo ~last_hi in
        out := Smallbias.Generator.parities gen r ~offset ~stride:nw ~tau
    | Explicit _ ->
        for j = 0 to tau - 1 do
          let base = offset + (j * nw) in
          let acc = ref 0L in
          for w = 0 to last - 1 do
            acc := Int64.logxor !acc (Int64.logand (input_word x w) (word t (base + w)))
          done;
          acc := Int64.logxor !acc (Int64.logand xlast (word t (base + last)));
          out := !out lor (parity64 !acc lsl j)
        done);
    !out
  end

let inner_products_int t ~offset ~tau v =
  if offset < 0 then negative ();
  let x = Int64.of_int v in
  let out = ref 0 in
  (match t with
  | Uniform key ->
      let ctr = ref (counter key offset) in
      for j = 0 to tau - 1 do
        ctr := advance !ctr;
        out := !out lor (parity64 (Int64.logand x (mix !ctr)) lsl j)
      done
  | Biased gen ->
      let last_lo = v land 0xFFFF_FFFF and last_hi = (v asr 32) land 0xFFFF_FFFF in
      let r = Smallbias.Generator.reduce gen Bytes.empty ~n:1 ~last_lo ~last_hi in
      out := Smallbias.Generator.parities gen r ~offset ~stride:1 ~tau
  | Explicit _ ->
      for j = 0 to tau - 1 do
        out := !out lor (parity64 (Int64.logand x (word t (offset + j))) lsl j)
      done);
  !out
