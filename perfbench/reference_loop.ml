(* A fixed, allocation-heavy computation that calls no library code, so
   its time tracks the host's speed only.  Timed before every trial, it
   is the yardstick the end-to-end times are normalised by (see
   Measure). *)

module Int_map = Map.Make (Int)

let run () =
  let h = Hashtbl.create 1024 in
  let m = ref Int_map.empty in
  let x = ref 0 in
  for r = 1 to 40_000 do
    let k = (r * 7919) land 16383 in
    Hashtbl.replace h k (r, [ r; k ]);
    m := if r land 1023 = 0 then Int_map.empty else Int_map.add k r !m;
    match Hashtbl.find_opt h ((k * 31) land 16383) with
    | Some (a, l) -> x := !x + a + List.length l
    | None -> ()
  done;
  for _ = 1 to 4 do
    let pairs = Array.init 50_000 (fun i -> [| float_of_int i; float_of_int (i + 1) |]) in
    Array.iter (fun p -> x := !x + int_of_float p.(1)) pairs
  done;
  ignore (Sys.opaque_identity !x)
