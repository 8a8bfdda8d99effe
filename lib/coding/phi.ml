type constants = { c1 : float; c_mp : float; c7 : float }

let default_constants = { c1 = 2.; c_mp = 2.; c7 = 60. }

let eval cst ~k ~m ~sum_g ~sum_b ~b_star ~corruptions =
  let fk = float_of_int k in
  (fk /. float_of_int m *. float_of_int sum_g)
  -. (cst.c_mp *. fk *. float_of_int sum_b)
  -. (cst.c1 *. fk *. float_of_int b_star)
  +. (cst.c7 *. fk *. float_of_int corruptions)

let stall ~k delta = delta < float_of_int k -. 1e-9
