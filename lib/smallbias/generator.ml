open Gf

(* The output sequence b_i = ⟨x^i mod f, s⟩ is a linear recurring sequence
   with characteristic polynomial f: for n ≥ 62,
       b_n = parity(f_low & (b_{n-62} … b_{n-1})).
   The generator therefore keeps a 62-bit *window* of upcoming output bits
   as its hot state.  Word i is that window (its bits 0..61) plus two
   bits that are parities of the window (62 and 63); the next window is
   a GF(2)-linear map of the window, which we tabulate byte-wise: 8 table
   lookups and xors per word.

   Seeking goes through the field: word i starts at state x^(64·i),
   the product of one [pow] entry per nonzero byte of i, and a second
   byte table maps a state p to its window ⟨p·x^j, s⟩, j < 62 (another
   GF(2)-linear map).

   Hashing goes through the field too.  ⟨·, s⟩ is linear, so the parity
   of an input X (words X_0 … X_(n-1)) ANDed with the n words from word
   b on is ⟨x^(64·b)·R, s⟩, where R = Σ_k X_k·x^(64k) mod f: reduce the
   input once, then each slab costs one field product. *)

type t = {
  field : Gf2k.field;
  s : int;
  mutable window : int; (* bits 64·widx .. 64·widx+61 of the stream *)
  mutable widx : int;
  par62 : int; (* word bit 62 is parity(window ∧ par62); par62 = x^62 mod f *)
  par63 : int; (* likewise bit 63, with par63 = x^63 mod f *)
  (* Byte tables, entry pos*256+byte for a value whose byte [pos] is
     [byte] (rest zero): [tbl_w] gives the successor window of such a
     window, [tbl_s] the window of such a field state, [tbl_x64] such a
     field state times x^64.  [tbl_w] and [tbl_s] are built on the
     first word or seek; a hash never reads them. *)
  mutable tbl_w : int array;
  mutable tbl_s : int array;
  (* [tbl_x64] and [pow] are built on the first seek or hash.  [pow] is
     the byte-window power table: entry k*256+d is x^(64·d·256^k).  Row
     k is filled on the first power that has a nonzero byte k, and reads
     0 at entry k*256 until then.  Its 256 entries past the 8 rows are
     [fill_row]'s scratch, so that filling a row allocates nothing. *)
  mutable tbl_x64 : int array;
  mutable pow : int array;
}

let seed_bits = 128
let state_mask = (1 lsl 62) - 1

(* [field]'s modulus is irreducible by construction: [Gf2k.make] and
   [Gf2k.first_irreducible] are its only sources. *)
let of_field field ~s =
  let f = Gf2k.modulus_low field in
  {
    field;
    s;
    window = s (* bit j is ⟨x^j, s⟩ = s_j for j < 62 *);
    widx = 0;
    par62 = f;
    par63 = Gf2k.step field f;
    tbl_w = [||];
    tbl_s = [||];
    tbl_x64 = [||];
    pow = [||];
  }

let create ~f ~s =
  let s = s land state_mask in
  if s = 0 then invalid_arg "Generator.create: zero start state";
  of_field (Gf2k.make ~modulus_low:f) ~s

(* The first nonzero state among [draw 0], [draw 1], … *)
let first_state draw =
  let rec go i =
    let s = Int64.to_int (draw i) land state_mask in
    if s = 0 then go (i + 1) else s
  in
  go 0

let sample rng =
  let field =
    Gf2k.first_irreducible (fun _ -> (Int64.to_int (Util.Rng.int64 rng) land state_mask) lor 1)
  in
  of_field field ~s:(first_state (fun _ -> Util.Rng.int64 rng))

let of_seed (a, b) =
  (* Deterministic irreducible search: the first candidate keyed by [a]
     that is irreducible.  Both endpoints of a link run this on identical
     bits, so they derive identical generators. *)
  let field =
    Gf2k.first_irreducible (fun i -> (Int64.to_int (Util.Rng.at ~seed:a i) land state_mask) lor 1)
  in
  of_field field ~s:(first_state (fun i -> Util.Rng.at ~seed:b i))

let fresh t = of_field t.field ~s:t.s

let seed t = (Gf2k.modulus_low t.field, t.s)

(* One step of the recurrence: the window one bit further on. *)
let shift f_low w = (w lsr 1) lor (Gf2k.parity_int (w land f_low) lsl 61)

(* The byte table of the GF(2)-linear map sending bit k to [basis.(k)]
   (bits past the basis to 0): entry pos*256 + byte is the image of
   byte·2^(8·pos).  Each row is filled by doubling: its entries below
   2^b, each plus the image of bit b, are those from 2^b up to
   2^(b+1). *)
let byte_table basis =
  let tbl = Array.make (8 * 256) 0 in
  for k = 0 to 63 do
    let row = k / 8 * 256 and half = 1 lsl (k mod 8) in
    let img = if k < Array.length basis then basis.(k) else 0 in
    for j = 0 to half - 1 do
      tbl.(row + half + j) <- tbl.(row + j) lxor img
    done
  done;
  tbl

let ensure_walk t =
  if Array.length t.tbl_w = 0 then begin
    let f_low = Gf2k.modulus_low t.field in
    (* The successor of window e_k is e_k shifted 64 steps on.  Shifting
       is linear and shift e_(k+1) = e_k + f_(k+1)·e_61, so below e_61
       each successor is one shift of the next one up. *)
    let succ = Array.make 62 (1 lsl 61) in
    for _ = 1 to 64 do
      succ.(61) <- shift f_low succ.(61)
    done;
    for k = 60 downto 0 do
      succ.(k) <- shift f_low succ.(k + 1) lxor (succ.(61) land -((f_low lsr (k + 1)) land 1))
    done;
    (* State x^k has window b_k .. b_(k+61): the start window (= s)
       shifted k steps on. *)
    let states = Array.make 62 0 in
    let w = ref t.s in
    for k = 0 to 61 do
      states.(k) <- !w;
      w := shift f_low !w
    done;
    t.tbl_s <- byte_table states;
    (* Last: a non-empty [tbl_w] marks both tables built. *)
    t.tbl_w <- byte_table succ
  end

let ensure_field t =
  if Array.length t.pow = 0 then begin
    (* x^(64+k) mod f, the image of state x^k under p ↦ p·x^64. *)
    let times = Array.make 62 (Gf2k.pow_x t.field 64) in
    for k = 1 to 61 do
      times.(k) <- Gf2k.step t.field times.(k - 1)
    done;
    t.tbl_x64 <- byte_table times;
    (* Last: a non-empty [pow] marks both tables built. *)
    t.pow <- Array.make (9 * 256) 0
  end

(* The image of a 62-bit [v] under a byte-tabulated linear map. *)
let[@inline] apply tbl v =
  Array.unsafe_get tbl (v land 0xFF)
  lxor Array.unsafe_get tbl (0x100 lor ((v lsr 8) land 0xFF))
  lxor Array.unsafe_get tbl (0x200 lor ((v lsr 16) land 0xFF))
  lxor Array.unsafe_get tbl (0x300 lor ((v lsr 24) land 0xFF))
  lxor Array.unsafe_get tbl (0x400 lor ((v lsr 32) land 0xFF))
  lxor Array.unsafe_get tbl (0x500 lor ((v lsr 40) land 0xFF))
  lxor Array.unsafe_get tbl (0x600 lor ((v lsr 48) land 0xFF))
  lxor Array.unsafe_get tbl (0x700 lor (v lsr 56))

(* [Gf2k.parity_int], restated so that it inlines into the word loops. *)
let[@inline] parity x =
  let x = x lxor (x lsr 32) in
  let x = x lxor (x lsr 16) in
  let x = x lxor (x lsr 8) in
  (0x6996 lsr ((x lxor (x lsr 4)) land 0xF)) land 1

let next_word t =
  ensure_walk t;
  let w = t.window in
  t.window <- apply t.tbl_w w;
  t.widx <- t.widx + 1;
  let top = parity (w land t.par62) lor (parity (w land t.par63) lsl 1) in
  Int64.logor (Int64.of_int w) (Int64.shift_left (Int64.of_int top) 62)

(* An input word (hi·2^32 + lo) as a field element: bits 0..61 as they
   are, bits 62 and 63 reduced to x^62 and x^63 mod f. *)
let[@inline] word_mod t ~lo ~hi =
  (lo lor ((hi land 0x3FFF_FFFF) lsl 32))
  lxor (t.par62 land -((hi lsr 30) land 1))
  lxor (t.par63 land -((hi lsr 31) land 1))

(* Word [k] of a {!Util.Bitvec.backing} buffer, read without a bounds
   check: [reduce] checks the range once per call. *)
external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external swap64 : int64 -> int64 = "%bswap_int64"

let[@inline] input_word x k =
  let v = get64u x (8 * k) in
  if Sys.big_endian then swap64 v else v

let reduce t x ~n ~last_lo ~last_hi =
  if n < 1 || n - 1 > Bytes.length x / 8 then invalid_arg "Generator.reduce: n";
  ensure_field t;
  (* Horner from the last word down: R ← R·x^64 + X_k. *)
  let r = ref (word_mod t ~lo:last_lo ~hi:last_hi) in
  for k = n - 2 downto 0 do
    let xk = input_word x k in
    let lo = Int64.to_int xk land 0xFFFF_FFFF in
    let hi = Int64.to_int (Int64.shift_right_logical xk 32) in
    r := apply t.tbl_x64 !r lxor word_mod t ~lo ~hi
  done;
  !r

(* Row [k] of [pow]: x^(64·256^k) is x^64 squared 8k times, and entry d
   its d-th power, entry d - 1 times it.  That product is a GF(2)-linear
   map, tabulated per nibble in [pow]'s scratch (16 positions of 16
   entries from [nib] on, each position filled by doubling from the
   images of its 4 bits): 16 lookups per entry instead of a field
   product.  Entry 0 is written last: it marks the row filled. *)
let nib = 8 * 256

let fill_row t k =
  let row = k * 256 and pow = t.pow in
  let b = ref (apply t.tbl_x64 1) in
  for _ = 1 to 8 * k do
    b := Gf2k.mul t.field !b !b
  done;
  let img = ref !b in
  for j = 0 to 61 do
    let pos = nib + (j / 4 * 16) and half = 1 lsl (j mod 4) in
    for v = 0 to half - 1 do
      pow.(pos + half + v) <- pow.(pos + v) lxor !img
    done;
    img := Gf2k.step t.field !img
  done;
  pow.(row + 1) <- !b;
  for d = 2 to 255 do
    let p = pow.(row + d - 1) and q = ref 0 in
    for pos = 0 to 15 do
      q := !q lxor Array.unsafe_get pow (nib + ((pos * 16) lor ((p lsr (4 * pos)) land 15)))
    done;
    pow.(row + d) <- !q
  done;
  pow.(row) <- 1

(* x^(64·i) for [i >= 0]: the product of one [pow] entry per nonzero
   byte of [i] (the first taken as it is). *)
let power t i =
  let p = ref 1 and rest = ref i and row = ref 0 in
  while !rest <> 0 do
    let d = !rest land 0xFF in
    if d <> 0 then begin
      if Array.unsafe_get t.pow !row = 0 then fill_row t (!row / 256);
      let e = Array.unsafe_get t.pow (!row + d) in
      p := if !p = 1 then e else Gf2k.mul t.field !p e
    end;
    rest := !rest lsr 8;
    row := !row + 256
  done;
  !p

let parities t r ~offset ~stride ~tau =
  if offset < 0 || stride < 1 then invalid_arg "Generator.parities: offset or stride";
  ensure_field t;
  let q = ref (Gf2k.mul t.field (power t offset) r) and out = ref 0 in
  (* Slab j + 1 starts [stride] words after slab j: its state is slab
     j's times x^(64·stride), a table step when that is x^64. *)
  if stride = 1 then
    for j = 0 to tau - 1 do
      if j > 0 then q := apply t.tbl_x64 !q;
      out := !out lor (parity (!q land t.s) lsl j)
    done
  else begin
    let step = power t stride in
    for j = 0 to tau - 1 do
      if j > 0 then q := Gf2k.mul t.field !q step;
      out := !out lor (parity (!q land t.s) lsl j)
    done
  end;
  !out

let word_index t = t.widx

let seek_word t i =
  if i < 0 then invalid_arg "Generator.seek_word: negative index";
  if i <> t.widx then begin
    ensure_walk t;
    ensure_field t;
    t.window <- apply t.tbl_s (power t i);
    t.widx <- i
  end

let bit_at t i = Gf2k.parity_int (Gf2k.pow_x t.field i land t.s) = 1
