let mean = function
  | [] -> nan
  | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let stddev = function
  | [] | [ _ ] -> 0.
  | xs ->
      let m = mean xs in
      let n = float_of_int (List.length xs) in
      sqrt (List.fold_left (fun acc x -> acc +. ((x -. m) ** 2.)) 0. xs /. (n -. 1.))

let percentile p xs =
  match List.sort compare xs with
  | [] -> nan
  | sorted ->
      let n = List.length sorted in
      let idx = int_of_float (ceil (p *. float_of_int n)) - 1 in
      let idx = max 0 (min (n - 1) idx) in
      List.nth sorted idx

let percentile_arr p xs =
  let n = Array.length xs in
  if n = 0 then nan
  else begin
    let sorted = Array.copy xs in
    Array.sort compare sorted;
    let idx = int_of_float (ceil (p *. float_of_int n)) - 1 in
    sorted.(max 0 (min (n - 1) idx))
  end

let median xs = percentile 0.5 xs

let wilson_interval ~successes ~trials =
  if trials = 0 then (0., 1.)
  else begin
    let z = 1.96 in
    let n = float_of_int trials in
    let p = float_of_int successes /. n in
    let z2 = z *. z in
    let denom = 1. +. (z2 /. n) in
    let centre = p +. (z2 /. (2. *. n)) in
    let spread = z *. sqrt (((p *. (1. -. p)) +. (z2 /. (4. *. n))) /. n) in
    (* Clamp: at p = 0 or 1 the exact bound is 0 or 1, but the two
       algebraically-equal expressions can differ in the last ulp. *)
    (max 0. ((centre -. spread) /. denom), min 1. ((centre +. spread) /. denom))
  end

let histogram ~bins xs =
  match xs with
  | [] -> [||]
  | x :: _ ->
      let lo = List.fold_left min x xs and hi = List.fold_left max x xs in
      let width = if hi > lo then (hi -. lo) /. float_of_int bins else 1. in
      let counts = Array.make bins 0 in
      List.iter
        (fun x ->
          let b = min (bins - 1) (int_of_float ((x -. lo) /. width)) in
          counts.(b) <- counts.(b) + 1)
        xs;
      Array.mapi (fun i c -> (lo +. (float_of_int i *. width), c)) counts
