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
   the product of the [jump] powers x^(64·2^j) over the set bits j of i,
   and a second byte table maps a state p to its window
   ⟨p·x^j, s⟩, j < 62 (another GF(2)-linear map). *)

type t = {
  field : Gf2k.field;
  s : int;
  mutable window : int; (* bits 64·widx .. 64·widx+61 of the stream *)
  mutable widx : int;
  par62 : int; (* word bit 62 is parity(window ∧ par62); par62 = x^62 mod f *)
  par63 : int; (* likewise bit 63, with par63 = x^63 mod f *)
  (* Built on first use.  Byte tables, entry pos*256+byte for a value
     whose byte [pos] is [byte] (rest zero): [tbl_w] gives the successor
     window of such a window, [tbl_s] the window of such a field state.
     [jump.(j)] = x^(64·2^j). *)
  mutable tbl_w : int array;
  mutable tbl_s : int array;
  mutable jump : int array;
}

let seed_bits = 128
let state_mask = (1 lsl 62) - 1

let create ~f ~s =
  let s = s land state_mask in
  if s = 0 then invalid_arg "Generator.create: zero start state";
  let field = Gf2k.make ~modulus_low:f in
  {
    field;
    s;
    window = s (* bit j is ⟨x^j, s⟩ = s_j for j < 62 *);
    widx = 0;
    par62 = f;
    par63 = Gf2k.step field f;
    tbl_w = [||];
    tbl_s = [||];
    jump = [||];
  }

let sample rng =
  let f = Gf2k.random_irreducible rng in
  let rec nonzero () =
    let s = Int64.to_int (Util.Rng.int64 rng) land state_mask in
    if s = 0 then nonzero () else s
  in
  create ~f ~s:(nonzero ())

let of_seed (a, b) =
  (* Deterministic irreducible search: hash the candidate space starting
     from [a] until Rabin's test passes.  Both endpoints of a link run this
     on identical bits, so they derive identical generators. *)
  let rec find i =
    let cand = (Int64.to_int (Util.Rng.at ~seed:a i) land state_mask) lor 1 in
    if Gf2k.is_irreducible cand then cand else find (i + 1)
  in
  let f = find 0 in
  let rec nonzero i =
    let s = Int64.to_int (Util.Rng.at ~seed:b i) land state_mask in
    if s = 0 then nonzero (i + 1) else s
  in
  create ~f ~s:(nonzero 0)

let seed t = (Gf2k.modulus_low t.field, t.s)

(* One step of the recurrence: the window one bit further on. *)
let shift f_low w = (w lsr 1) lor (Gf2k.parity_int (w land f_low) lsl 61)

(* The byte table of the GF(2)-linear map sending bit k to [basis.(k)]. *)
let byte_table basis =
  let tbl = Array.make (8 * 256) 0 in
  for pos = 0 to 7 do
    for byte = 0 to 255 do
      let v = ref 0 in
      for bit = 0 to 7 do
        let k = (8 * pos) + bit in
        if k < 62 && (byte lsr bit) land 1 = 1 then v := !v lxor basis.(k)
      done;
      tbl.((pos * 256) + byte) <- !v
    done
  done;
  tbl

let ensure_tables t =
  if Array.length t.tbl_w = 0 then begin
    let f_low = Gf2k.modulus_low t.field in
    (* The successor of window e_k is e_k shifted 64 steps on. *)
    let succ = Array.make 62 0 in
    for k = 0 to 61 do
      let w = ref (1 lsl k) in
      for _ = 1 to 64 do
        w := shift f_low !w
      done;
      succ.(k) <- !w
    done;
    (* State x^k has window b_k .. b_(k+61): the start window (= s)
       shifted k steps on. *)
    let states = Array.make 62 0 in
    let w = ref t.s in
    for k = 0 to 61 do
      states.(k) <- !w;
      w := shift f_low !w
    done;
    let jump = Array.make 62 (Gf2k.pow_x t.field 64) in
    for j = 1 to 61 do
      jump.(j) <- Gf2k.mul t.field jump.(j - 1) jump.(j - 1)
    done;
    t.tbl_s <- byte_table states;
    t.jump <- jump;
    (* Last: a non-empty [tbl_w] marks the tables built. *)
    t.tbl_w <- byte_table succ
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
  ensure_tables t;
  let w = t.window in
  t.window <- apply t.tbl_w w;
  t.widx <- t.widx + 1;
  let top = parity (w land t.par62) lor (parity (w land t.par63) lsl 1) in
  Int64.logor (Int64.of_int w) (Int64.shift_left (Int64.of_int top) 62)

(* The parity of one word AND an input word (hi·2^32 + lo), as a 62-bit
   mask on the window: the input's bits 62 and 63 select the window
   masks that give the word's bits 62 and 63. *)
let[@inline] window_mask t ~lo ~hi =
  (lo lor ((hi land 0x3FFF_FFFF) lsl 32))
  lxor (t.par62 land -((hi lsr 30) land 1))
  lxor (t.par63 land -((hi lsr 31) land 1))

(* Word [k] of a {!Util.Bitvec.backing} buffer, read without a bounds
   check: [inner_product] checks the range once per call. *)
external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external swap64 : int64 -> int64 = "%bswap_int64"

let[@inline] input_word x k =
  let v = get64u x (8 * k) in
  if Sys.big_endian then swap64 v else v

let inner_product t x ~n ~last_lo ~last_hi =
  if n < 1 || n - 1 > Bytes.length x / 8 then invalid_arg "Generator.inner_product: n";
  ensure_tables t;
  let acc = ref 0 and w = ref t.window in
  for k = 0 to n - 2 do
    let xk = input_word x k in
    let lo = Int64.to_int xk land 0xFFFF_FFFF in
    let hi = Int64.to_int (Int64.shift_right_logical xk 32) in
    acc := !acc lxor (!w land window_mask t ~lo ~hi);
    w := apply t.tbl_w !w
  done;
  acc := !acc lxor (!w land window_mask t ~lo:last_lo ~hi:last_hi);
  t.window <- apply t.tbl_w !w;
  t.widx <- t.widx + n;
  parity !acc

let word_index t = t.widx

let seek_word t i =
  if i < 0 then invalid_arg "Generator.seek_word: negative index";
  if i <> t.widx then begin
    ensure_tables t;
    (* x^(64·i) = ∏ x^(64·2^j) over the set bits j of i. *)
    let p = ref 1 and rest = ref i and j = ref 0 in
    while !rest <> 0 do
      if !rest land 1 = 1 then p := Gf2k.mul t.field !p (Array.unsafe_get t.jump !j);
      rest := !rest lsr 1;
      incr j
    done;
    t.window <- apply t.tbl_s !p;
    t.widx <- i
  end

let bit_at t i = Gf2k.parity_int (Gf2k.pow_x t.field i land t.s) = 1
