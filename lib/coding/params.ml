type seed_mode = Crs | Exchange

type t = {
  name : string;
  k : int;
  tau : int;
  seed_mode : seed_mode;
  iteration_factor : int;
  extra_iterations : int;
  flag_passing : bool;
  early_stop : bool;
}

let ceil_log2 x =
  if x < 1 then invalid_arg "Params.ceil_log2";
  let rec go acc p = if p >= x then acc else go (acc + 1) (2 * p) in
  go 0 1

let base ~name ~k ~tau ~seed_mode =
  {
    name;
    k;
    tau;
    seed_mode;
    iteration_factor = 6;
    extra_iterations = 12;
    flag_passing = true;
    early_stop = true;
  }

let algorithm_1 ?(tau = 6) g =
  let m = Topology.Graph.m g in
  base ~name:"Algorithm 1 (CRS, oblivious)" ~k:m ~tau ~seed_mode:Crs

let algorithm_a ?(tau = 6) g =
  let m = Topology.Graph.m g in
  base ~name:"Algorithm A (no CRS, oblivious)" ~k:m ~tau ~seed_mode:Exchange

(* τ = Θ(log m) for the non-oblivious schemes: the constant must be large
   enough that 2^τ dominates the adversary's per-chunk corruption choices
   (§6.1's union bound); 4·log₂ m with a floor of 12 does so for every
   network size we simulate. *)
let non_oblivious_tau m =
  min Hashing.Ip_hash.max_tau (max 12 (4 * max 1 (ceil_log2 m)))

let algorithm_b ?tau g =
  let m = Topology.Graph.m g in
  let logm = max 1 (ceil_log2 m) in
  let tau = match tau with Some t -> t | None -> non_oblivious_tau m in
  base ~name:"Algorithm B (non-oblivious)" ~k:(m * logm) ~tau ~seed_mode:Exchange

let algorithm_c ?tau g =
  let m = Topology.Graph.m g in
  let loglogm = max 1 (ceil_log2 (max 2 (ceil_log2 (max 2 m)))) in
  let tau = match tau with Some t -> t | None -> non_oblivious_tau m in
  base ~name:"Algorithm C (CRS, non-oblivious)" ~k:(m * loglogm) ~tau ~seed_mode:Crs
