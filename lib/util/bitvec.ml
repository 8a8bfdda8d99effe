type t = { mutable data : int64 array; mutable len : int }

let create () = { data = Array.make 4 0L; len = 0 }

let words_for n = (n + 63) / 64
let length t = t.len
let words t = words_for t.len

let ensure t bits =
  let need = words_for bits in
  if need > Array.length t.data then begin
    let cap = ref (Array.length t.data) in
    while !cap < need do
      cap := !cap * 2
    done;
    let data = Array.make !cap 0L in
    Array.blit t.data 0 data 0 (Array.length t.data);
    t.data <- data
  end

let get t i =
  assert (i >= 0 && i < t.len);
  Int64.logand (Int64.shift_right_logical t.data.(i / 64) (i mod 64)) 1L = 1L

let set_bit t i b =
  let w = i / 64 and o = i mod 64 in
  let mask = Int64.shift_left 1L o in
  t.data.(w) <-
    (if b then Int64.logor t.data.(w) mask else Int64.logand t.data.(w) (Int64.lognot mask))

let push t b =
  ensure t (t.len + 1);
  set_bit t t.len b;
  t.len <- t.len + 1

let push_int t ~bits v =
  for i = 0 to bits - 1 do
    push t ((v lsr i) land 1 = 1)
  done

let push_int64 t v =
  for i = 0 to 63 do
    push t (Int64.logand (Int64.shift_right_logical v i) 1L = 1L)
  done

let of_bools l =
  let t = create () in
  List.iter (push t) l;
  t

(* Truncation keeps the tail of the last word clean so that [word] never
   exposes stale bits and [equal] can compare words directly. *)
let truncate t n =
  assert (n >= 0 && n <= t.len);
  t.len <- n;
  let w = n / 64 and o = n mod 64 in
  if w < Array.length t.data then begin
    if o > 0 then t.data.(w) <- Int64.logand t.data.(w) (Int64.sub (Int64.shift_left 1L o) 1L);
    for i = (if o > 0 then w + 1 else w) to Array.length t.data - 1 do
      t.data.(i) <- 0L
    done
  end

let word t i = if i < Array.length t.data then t.data.(i) else 0L
let backing t = t.data

let copy t = { data = Array.copy t.data; len = t.len }

let equal a b =
  a.len = b.len
  &&
  let n = words a in
  let rec go i = i >= n || (word a i = word b i && go (i + 1)) in
  go 0

let append dst src =
  for i = 0 to src.len - 1 do
    push dst (get src i)
  done

let pp ppf t =
  for i = 0 to t.len - 1 do
    Format.pp_print_char ppf (if get t i then '1' else '0')
  done

let popcount x =
  let x = Int64.sub x Int64.(logand (shift_right_logical x 1) 0x5555555555555555L) in
  let x =
    Int64.add
      (Int64.logand x 0x3333333333333333L)
      Int64.(logand (shift_right_logical x 2) 0x3333333333333333L)
  in
  let x = Int64.(logand (add x (shift_right_logical x 4)) 0x0F0F0F0F0F0F0F0FL) in
  Int64.to_int (Int64.shift_right_logical (Int64.mul x 0x0101010101010101L) 56)

let parity64 x = popcount x land 1
