(* The formula itself lives in Phi (no Scheme dependency) so the scheme
   can gauge φ live; this module keeps the iter_stat-facing API. *)
type constants = Phi.constants = { c1 : float; c_mp : float; c7 : float }

let default_constants = Phi.default_constants

let phi cst ~k ~m st =
  Phi.eval cst ~k ~m ~sum_g:st.Scheme.sum_g ~sum_b:st.Scheme.sum_b ~b_star:st.Scheme.b_star
    ~corruptions:st.Scheme.corruptions

let increments ?(constants = default_constants) ~k ~m trace =
  let rec go acc = function
    | a :: (b :: _ as rest) -> go ((phi constants ~k ~m b -. phi constants ~k ~m a) :: acc) rest
    | [ _ ] | [] -> List.rev acc
  in
  go [] trace

let stalls ?(constants = default_constants) ~k ~m trace =
  List.length (List.filter (Phi.stall ~k) (increments ~constants ~k ~m trace))

let check_clean_exact ?(constants = default_constants) ~k ~m trace =
  List.for_all
    (fun delta -> abs_float (delta -. float_of_int k) < 1e-6)
    (increments ~constants ~k ~m trace)

let check_amortized ?(constants = default_constants) ~k ~m trace =
  match trace with
  | [] | [ _ ] -> true
  | first :: rest ->
      let last = List.nth rest (List.length rest - 1) in
      phi constants ~k ~m last -. phi constants ~k ~m first
      >= (float_of_int (k * (List.length rest)) -. 1e-6)
