open Gf

type t = int array

let zero = [||]
let degree p =
  let rec go i = if i < 0 then -1 else if p.(i) <> 0 then i else go (i - 1) in
  go (Array.length p - 1)

let is_zero p = degree p = -1

let normalize p =
  let d = degree p in
  if d = Array.length p - 1 then p else Array.sub p 0 (d + 1)

let add a b =
  let n = max (Array.length a) (Array.length b) in
  let get p i = if i < Array.length p then p.(i) else 0 in
  normalize (Array.init n (fun i -> Gf256.add (get a i) (get b i)))

let scale c p = normalize (Array.map (Gf256.mul c) p)

let mul a b =
  if is_zero a || is_zero b then zero
  else begin
    let r = Array.make (Array.length a + Array.length b - 1) 0 in
    Array.iteri
      (fun i ai ->
        if ai <> 0 then
          Array.iteri (fun j bj -> r.(i + j) <- Gf256.add r.(i + j) (Gf256.mul ai bj)) b)
      a;
    normalize r
  end

let shift k p =
  if is_zero p then zero
  else begin
    let r = Array.make (Array.length p + k) 0 in
    Array.blit p 0 r k (Array.length p);
    r
  end

let trunc k p = normalize (Array.sub p 0 (min k (Array.length p)))

let eval p x =
  let acc = ref 0 in
  for i = Array.length p - 1 downto 0 do
    acc := Gf256.add (Gf256.mul !acc x) p.(i)
  done;
  !acc

let deriv p =
  if Array.length p <= 1 then zero
  else normalize (Array.init (Array.length p - 1) (fun i -> if i land 1 = 0 then p.(i + 1) else 0))

let divmod a b =
  if is_zero b then raise Division_by_zero;
  let db = degree b in
  let lead_inv = Gf256.inv b.(db) in
  let r = Array.copy a in
  let q = Array.make (max 1 (Array.length a)) 0 in
  let rec go () =
    let dr = degree r in
    if dr >= db then begin
      let c = Gf256.mul r.(dr) lead_inv in
      q.(dr - db) <- c;
      for i = 0 to db do
        r.(dr - db + i) <- Gf256.add r.(dr - db + i) (Gf256.mul c b.(i))
      done;
      go ()
    end
  in
  go ();
  (normalize q, normalize r)
