(* Word [w] lives in bytes [8w, 8w+8) of [data], little-endian, so bit
   [i] is bit [i mod 8] of byte [i / 8] on every host.  Invariant: every
   bit at or beyond [len] is zero, which lets the word-wise pushes below
   OR into place without clearing first. *)
type t = { mutable data : Bytes.t; mutable len : int }

external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64u : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"
external swap64 : int64 -> int64 = "%bswap_int64"

(* Unchecked word access: callers keep [w] below [capacity]. *)
let[@inline] load b w =
  let x = get64u b (8 * w) in
  if Sys.big_endian then swap64 x else x

let[@inline] store b w x = set64u b (8 * w) (if Sys.big_endian then swap64 x else x)
let[@inline] capacity t = Bytes.length t.data / 8

let create () = { data = Bytes.make (8 * 4) '\000'; len = 0 }

let words_for n = (n + 63) / 64
let length t = t.len
let words t = words_for t.len

let ensure t bits =
  let need = words_for bits in
  if need > capacity t then begin
    let cap = ref (capacity t) in
    while !cap < need do
      cap := !cap * 2
    done;
    let data = Bytes.make (8 * !cap) '\000' in
    Bytes.blit t.data 0 data 0 (Bytes.length t.data);
    t.data <- data
  end

let get t i =
  assert (i >= 0 && i < t.len);
  (Char.code (Bytes.unsafe_get t.data (i lsr 3)) lsr (i land 7)) land 1 = 1

let set t i b =
  assert (i >= 0 && i < t.len);
  let byte = Char.code (Bytes.unsafe_get t.data (i lsr 3)) and m = 1 lsl (i land 7) in
  Bytes.unsafe_set t.data (i lsr 3) (Char.unsafe_chr (if b then byte lor m else byte land lnot m))

let push t b =
  ensure t (t.len + 1);
  if b then begin
    let i = t.len in
    let byte = Char.code (Bytes.unsafe_get t.data (i lsr 3)) in
    Bytes.unsafe_set t.data (i lsr 3) (Char.unsafe_chr (byte lor (1 lsl (i land 7))))
  end;
  t.len <- t.len + 1

(* OR the 64-bit [x] in at bit [t.len] and advance by [bits]; every bit
   of [x] from [bits] on is zero.  Needs [ensure t (t.len + bits)]. *)
let[@inline] or_word t x ~bits =
  let w = t.len / 64 and o = t.len land 63 in
  store t.data w (Int64.logor (load t.data w) (Int64.shift_left x o));
  (* The carry word is still all zero past [len], so a store suffices. *)
  if o + bits > 64 then store t.data (w + 1) (Int64.shift_right_logical x (64 - o));
  t.len <- t.len + bits

let push_int t ~bits v =
  if bits < 0 || bits > Sys.int_size then invalid_arg "Bitvec.push_int: bits";
  if bits > 0 then begin
    ensure t (t.len + bits);
    or_word t (Int64.logand (Int64.of_int v) (Int64.pred (Int64.shift_left 1L bits))) ~bits
  end

let push_int64 t v =
  ensure t (t.len + 64);
  or_word t v ~bits:64

let of_bools l =
  let t = create () in
  List.iter (push t) l;
  t

(* Truncation keeps the tail clean so that [word] never exposes stale
   bits and [equal] can compare words directly: mask the word holding
   bit [n], then zero the words after it up to the old length. *)
let truncate t n =
  assert (n >= 0 && n <= t.len);
  let w = n / 64 and o = n land 63 in
  let first_clear = if o > 0 then w + 1 else w in
  let old_words = words t in
  if o > 0 then store t.data w (Int64.logand (load t.data w) (Int64.pred (Int64.shift_left 1L o)));
  if old_words > first_clear then
    Bytes.fill t.data (8 * first_clear) (8 * (old_words - first_clear)) '\000';
  t.len <- n

let word t i = if i < capacity t then Bytes.get_int64_le t.data (8 * i) else 0L
let backing t = t.data

let copy t = { data = Bytes.copy t.data; len = t.len }

let equal a b =
  a.len = b.len
  &&
  let n = words a in
  let rec go i = i >= n || (Int64.equal (load a.data i) (load b.data i) && go (i + 1)) in
  go 0

let popcount x =
  let x = Int64.sub x Int64.(logand (shift_right_logical x 1) 0x5555555555555555L) in
  let x =
    Int64.add
      (Int64.logand x 0x3333333333333333L)
      Int64.(logand (shift_right_logical x 2) 0x3333333333333333L)
  in
  let x = Int64.(logand (add x (shift_right_logical x 4)) 0x0F0F0F0F0F0F0F0FL) in
  Int64.to_int (Int64.shift_right_logical (Int64.mul x 0x0101010101010101L) 56)

(* Word-wise, unboxed: whole words compared as they are until one
   differs or the [bits lsr 6] full words run out, then the partial last
   word (if any) under a mask, since bits past [bits] may differ even
   where both vectors are longer.  The first differing bit of a word is
   its lowest set bit of the XOR. *)
let common_prefix a b ~bits =
  if bits < 0 || bits > a.len || bits > b.len then invalid_arg "Bitvec.common_prefix: bits";
  let full = bits lsr 6 in
  let i = ref 0 in
  while !i < full && Int64.equal (load a.data !i) (load b.data !i) do
    incr i
  done;
  let x =
    if !i < full then Int64.logxor (load a.data !i) (load b.data !i)
    else if bits land 63 = 0 then 0L
    else
      Int64.logand
        (Int64.logxor (load a.data full) (load b.data full))
        (Int64.pred (Int64.shift_left 1L (bits land 63)))
  in
  if Int64.equal x 0L then bits
  else (64 * !i) + popcount (Int64.pred (Int64.logand x (Int64.neg x)))

let append dst src =
  let src = if dst == src then copy src else src in
  ensure dst (dst.len + src.len);
  let n = words src in
  for i = 0 to n - 2 do
    or_word dst (load src.data i) ~bits:64
  done;
  if n > 0 then or_word dst (load src.data (n - 1)) ~bits:(src.len - (64 * (n - 1)))

let parity64 x = popcount x land 1
