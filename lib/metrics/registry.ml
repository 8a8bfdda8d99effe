(* Metric snapshots.  See registry.mli for the contract. *)

type klass = Exact | Timed
type value = Counter of int | Gauge of float
type snapshot = (string * klass * value) list

let merge_value a b =
  match (a, b) with
  | Counter x, Counter y -> Counter (x + y)
  | Gauge _, Gauge y -> Gauge y
  | first, _ -> first

let merge snaps =
  let tbl = Hashtbl.create 64 in
  let order = ref [] in
  List.iter
    (List.iter (fun (name, k, v) ->
         match Hashtbl.find_opt tbl name with
         | None ->
             Hashtbl.add tbl name (k, v);
             order := name :: !order
         | Some (k0, v0) -> Hashtbl.replace tbl name (k0, merge_value v0 v)))
    snaps;
  !order
  |> List.rev_map (fun name ->
         let k, v = Hashtbl.find tbl name in
         (name, k, v))
  |> List.sort (fun (a, _, _) (b, _, _) -> String.compare a b)

let exact_only s = List.filter (fun (_, k, _) -> k = Exact) s
let timed_only s = List.filter (fun (_, k, _) -> k = Timed) s
