type symbol = int

let sym_star = 0
let sym_bit b = if b then 3 else 2

(* A chunk serializes as its 32-bit number, then 2 bits per symbol. *)
let header_bits = 32

type t = {
  bits : Util.Bitvec.t; (* the serialization: the one store of every record *)
  mutable cum : int array; (* cum.(i) = serialized bits of chunks 1..i+1 *)
  mutable stamps : int array;
      (* [||] until the first truncation or rot: chunk i+1 is then the
         first record ever pushed at its index, and its stamp is i+1.
         From then on stamps.(i) is the stamp chunk i+1 got when it last
         changed: every push, and a rot at or below it, draws a fresh
         negative one, so it names the whole prefix 1..i+1 *)
  mutable n : int;
  mutable next_stamp : int; (* the next fresh stamp, counting down from -1 *)
  mutable rewound : int;
}

let create () =
  {
    bits = Util.Bitvec.create ();
    cum = Array.make 8 0;
    stamps = [||];
    n = 0;
    next_stamp = -1;
    rewound = 0;
  }

let length t = t.n
let chunks_rewound t = t.rewound

let ensure t =
  if t.n = Array.length t.cum then begin
    let cum = Array.make (2 * t.n) 0 in
    Array.blit t.cum 0 cum 0 t.n;
    t.cum <- cum;
    if Array.length t.stamps > 0 then begin
      let stamps = Array.make (2 * t.n) 0 in
      Array.blit t.stamps 0 stamps 0 t.n;
      t.stamps <- stamps
    end
  end

(* A clean transcript keeps no stamps (see [t]); the first truncation or
   rot materialises the implicit ones. *)
let materialise t =
  if Array.length t.stamps = 0 then t.stamps <- Array.init (Array.length t.cum) (fun i -> i + 1)

let restamp t i =
  t.stamps.(i) <- t.next_stamp;
  t.next_stamp <- t.next_stamp - 1

let push_chunk t ~events ~len =
  ensure t;
  Util.Bitvec.push_int t.bits ~bits:header_bits (t.n + 1);
  for i = 0 to len - 1 do
    let s = events.(i) in
    assert (s = 0 || s = 2 || s = 3);
    Util.Bitvec.push_int t.bits ~bits:2 s
  done;
  t.cum.(t.n) <- Util.Bitvec.length t.bits;
  if Array.length t.stamps > 0 then restamp t t.n;
  t.n <- t.n + 1

let prefix_bits t i =
  if i < 0 || i > t.n then invalid_arg "Transcript.prefix_bits: out of range";
  if i = 0 then 0 else t.cum.(i - 1)

let event_count t c =
  if c < 1 || c > t.n then invalid_arg "Transcript.event_count: out of range";
  (t.cum.(c - 1) - prefix_bits t (c - 1) - header_bits) / 2

let symbol_offset t ~chunk ~event =
  if chunk < 1 || chunk > t.n + 1 then invalid_arg "Transcript.symbol_offset: out of range";
  prefix_bits t (chunk - 1) + header_bits + (2 * event)

let symbol t ~chunk ~event =
  if event < 0 || event >= event_count t chunk then invalid_arg "Transcript.symbol: out of range";
  let o = symbol_offset t ~chunk ~event in
  Bool.to_int (Util.Bitvec.get t.bits o) + (2 * Bool.to_int (Util.Bitvec.get t.bits (o + 1)))

let stamp t i =
  if i < 0 || i > t.n then invalid_arg "Transcript.stamp: out of range";
  if i = 0 then 0 else if Array.length t.stamps = 0 then i else t.stamps.(i - 1)

let truncate t n =
  if n < 0 || n > t.n then invalid_arg "Transcript.truncate: out of range";
  if n < t.n then begin
    materialise t;
    Util.Bitvec.truncate t.bits (prefix_bits t n);
    t.rewound <- t.rewound + (t.n - n);
    t.n <- n
  end

(* A symbol's width never changes, so the rot rewrites its two bits in
   place: 2 ↔ 3 is the low bit, and ∗ (0) becomes bit 0 (2) by setting
   the high one. *)
let corrupt t ~chunk ~event =
  if chunk < 1 || chunk > t.n then invalid_arg "Transcript.corrupt: chunk out of range";
  if event < 0 || event >= event_count t chunk then
    invalid_arg "Transcript.corrupt: event out of range";
  let o = symbol_offset t ~chunk ~event in
  if Util.Bitvec.get t.bits (o + 1) then Util.Bitvec.set t.bits o (not (Util.Bitvec.get t.bits o))
  else Util.Bitvec.set t.bits (o + 1) true;
  materialise t;
  for i = chunk - 1 to t.n - 1 do
    restamp t i
  done

let serialized t = t.bits
let serialized_bits t = prefix_bits t t.n

let same_prefix a b p =
  let bits = prefix_bits a p in
  bits = prefix_bits b p && Util.Bitvec.common_prefix a.bits b.bits ~bits = bits

(* Chunk i+1 is common while both ends end it at the same offset within
   the common bits: equal offsets at every chunk so far mean equal
   record lengths, so records of different lengths never match. *)
let equal_prefix a b =
  let d =
    Util.Bitvec.common_prefix a.bits b.bits ~bits:(min (serialized_bits a) (serialized_bits b))
  in
  let rec go i =
    if i < a.n && i < b.n && a.cum.(i) = b.cum.(i) && a.cum.(i) <= d then go (i + 1) else i
  in
  go 0
