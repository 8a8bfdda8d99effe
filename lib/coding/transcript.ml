type symbol = int

let sym_star = 0
let sym_bit b = if b then 3 else 2

type t = {
  bits : Util.Bitvec.t;
  mutable chunks : symbol array array; (* record per chunk *)
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
    chunks = Array.make 8 [||];
    cum = Array.make 8 0;
    stamps = [||];
    n = 0;
    next_stamp = -1;
    rewound = 0;
  }

let length t = t.n
let chunks_rewound t = t.rewound

let ensure t =
  if t.n = Array.length t.chunks then begin
    let chunks = Array.make (2 * t.n) [||] in
    Array.blit t.chunks 0 chunks 0 t.n;
    t.chunks <- chunks;
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
  if Array.length t.stamps = 0 then t.stamps <- Array.init (Array.length t.chunks) (fun i -> i + 1)

let restamp t i =
  t.stamps.(i) <- t.next_stamp;
  t.next_stamp <- t.next_stamp - 1

let push_chunk t ~events =
  ensure t;
  let index = t.n + 1 in
  Util.Bitvec.push_int t.bits ~bits:32 index;
  Array.iter
    (fun s ->
      assert (s = 0 || s = 2 || s = 3);
      Util.Bitvec.push_int t.bits ~bits:2 s)
    events;
  t.chunks.(t.n) <- events;
  t.cum.(t.n) <- Util.Bitvec.length t.bits;
  if Array.length t.stamps > 0 then restamp t t.n;
  t.n <- t.n + 1

let events t i =
  if i < 1 || i > t.n then invalid_arg "Transcript.events: out of range";
  t.chunks.(i - 1)

let prefix_bits t i =
  if i < 0 || i > t.n then invalid_arg "Transcript.prefix_bits: out of range";
  if i = 0 then 0 else t.cum.(i - 1)

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

let corrupt t ~chunk ~event =
  if chunk < 1 || chunk > t.n then invalid_arg "Transcript.corrupt: chunk out of range";
  let row = t.chunks.(chunk - 1) in
  if event < 0 || event >= Array.length row then
    invalid_arg "Transcript.corrupt: event out of range";
  (* [copy] shares chunk rows, so replace the row rather than mutate it
     in place: snapshots taken before the rot keep a pristine record. *)
  let row = Array.copy row in
  row.(event) <- (match row.(event) with 2 -> 3 | 3 -> 2 | _ -> 2);
  t.chunks.(chunk - 1) <- row;
  materialise t;
  (* Rebuild the serialization from the rotted chunk on, so hashes really
     see the rotted state, and restamp that suffix. *)
  Util.Bitvec.truncate t.bits (prefix_bits t (chunk - 1));
  for i = chunk - 1 to t.n - 1 do
    Util.Bitvec.push_int t.bits ~bits:32 (i + 1);
    Array.iter (fun s -> Util.Bitvec.push_int t.bits ~bits:2 s) t.chunks.(i);
    t.cum.(i) <- Util.Bitvec.length t.bits;
    restamp t i
  done

let copy t =
  {
    bits = Util.Bitvec.copy t.bits;
    chunks = Array.copy t.chunks;
    cum = Array.copy t.cum;
    stamps = Array.copy t.stamps;
    n = t.n;
    next_stamp = t.next_stamp;
    rewound = t.rewound;
  }

let serialized t = t.bits
let serialized_bits t = if t.n = 0 then 0 else t.cum.(t.n - 1)

let same_prefix a b p =
  let bits = prefix_bits a p in
  bits = prefix_bits b p && Util.Bitvec.equal_prefix a.bits b.bits ~bits

let equal_prefix a b =
  let rec go i =
    if i >= a.n || i >= b.n then i
    else if a.chunks.(i) = b.chunks.(i) then go (i + 1)
    else i
  in
  go 0
