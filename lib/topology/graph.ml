type t = {
  n : int;
  edges : (int * int) array;
  adj : int array array;
  (* adj_eid.(v).(i) is the edge id of {v, adj.(v).(i)} — a CSR-style
     parallel array, so edge/dir id lookups are an allocation-free binary
     search over the sorted adjacency instead of a tuple-keyed hashtable
     probe (the hashtable was the O(1)-but-allocating bottleneck at
     n = 10k, where scheme setup performs O(m) lookups). *)
  adj_eid : int array array;
  (* dir_ends.(d) is the (src, dst) of directed link d: the inverse of
     [dir_id], built once so every reader shares one table. *)
  dir_ends : (int * int) array;
}

type tree = {
  root : int;
  parent : int array;
  children : int array array;
  level : int array;
  depth : int;
}

let n t = t.n
let m t = Array.length t.edges
let edges t = t.edges
let neighbors t v = t.adj.(v)
let degree t v = Array.length t.adj.(v)
let max_degree t =
  let d = ref 0 in
  for v = 0 to t.n - 1 do
    d := max !d (degree t v)
  done;
  !d

(* Binary search of [u] in the sorted adjacency of [v]; -1 if absent. *)
let adj_index t v u =
  let a = t.adj.(v) in
  let lo = ref 0 and hi = ref (Array.length a - 1) and found = ref (-1) in
  while !found < 0 && !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let x = Array.unsafe_get a mid in
    if x = u then found := mid else if x < u then lo := mid + 1 else hi := mid - 1
  done;
  !found

let are_adjacent t u v =
  u >= 0 && u < t.n && v >= 0 && v < t.n && adj_index t u v >= 0

let neighbor_index t v u =
  match adj_index t v u with -1 -> raise Not_found | i -> i

let edge_id t u v =
  if u < 0 || u >= t.n || v < 0 || v >= t.n then raise Not_found;
  (* Search from the lower-degree endpoint. *)
  let a, b = if degree t u <= degree t v then (u, v) else (v, u) in
  match adj_index t a b with -1 -> raise Not_found | i -> t.adj_eid.(a).(i)

let dir_id t ~src ~dst = (2 * edge_id t src dst) + if src < dst then 0 else 1
let dir_ends t d = t.dir_ends.(d)

let bfs_dist_into t root dist =
  Array.fill dist 0 t.n (-1);
  dist.(root) <- 0;
  let q = Queue.create () in
  Queue.add root q;
  while not (Queue.is_empty q) do
    let u = Queue.pop q in
    Array.iter
      (fun v ->
        if dist.(v) < 0 then begin
          dist.(v) <- dist.(u) + 1;
          Queue.add v q
        end)
      t.adj.(u)
  done

let bfs_dist t root =
  let dist = Array.make t.n (-1) in
  bfs_dist_into t root dist;
  dist

let create ~n ~edges =
  if n < 1 then invalid_arg "Graph.create: n < 1";
  let ids = Hashtbl.create (List.length edges) in
  List.iteri
    (fun i (u, v) ->
      if u = v then invalid_arg "Graph.create: self-loop";
      if u < 0 || u >= n || v < 0 || v >= n then invalid_arg "Graph.create: endpoint out of range";
      let key = (min u v, max u v) in
      if Hashtbl.mem ids key then invalid_arg "Graph.create: duplicate edge";
      Hashtbl.add ids key i)
    edges;
  let adj_lists = Array.make n [] in
  List.iteri
    (fun i (u, v) ->
      adj_lists.(u) <- (v, i) :: adj_lists.(u);
      adj_lists.(v) <- (u, i) :: adj_lists.(v))
    edges;
  let sorted = Array.map (fun l -> Array.of_list (List.sort compare l)) adj_lists in
  let adj = Array.map (Array.map fst) sorted in
  let adj_eid = Array.map (Array.map snd) sorted in
  let edges = Array.of_list edges in
  let dir_ends =
    Array.init (2 * Array.length edges) (fun d ->
        let u, v = edges.(d / 2) in
        if d land 1 = 0 then (min u v, max u v) else (max u v, min u v))
  in
  let t = { n; edges; adj; adj_eid; dir_ends } in
  if n > 1 then begin
    let dist = bfs_dist t 0 in
    if Array.exists (fun d -> d < 0) dist then invalid_arg "Graph.create: not connected"
  end;
  t

(* Exact diameter via the iFUB scheme: BFS from a double-sweep midpoint,
   then sweep its levels top-down, running one eccentricity BFS per node
   until the remaining levels cannot beat the bound (2·level ≤ best).
   Worst case is still all-pairs BFS, but on the generators used here
   (grids, tori, hypercubes, random-regular) it terminates after a
   handful of BFS passes — the all-pairs version was the O(n·m) wall at
   n = 10k. *)
let diameter t =
  if t.n = 1 then 0
  else begin
    let dist = Array.make t.n (-1) in
    let scratch = Array.make t.n (-1) in
    let farthest d =
      let v = ref 0 in
      for u = 1 to t.n - 1 do
        if d.(u) > d.(!v) then v := u
      done;
      !v
    in
    let ecc d =
      let e = ref 0 in
      Array.iter (fun x -> if x > !e then e := x) d;
      !e
    in
    (* Double sweep: a -> u (farthest) -> w (farthest from u). *)
    bfs_dist_into t 0 dist;
    let u = farthest dist in
    bfs_dist_into t u dist;
    let w = farthest dist in
    let lb = ref dist.(w) in
    (* Midpoint of the u-w path as iFUB root. *)
    let half = dist.(w) / 2 in
    bfs_dist_into t w scratch;
    let root = ref u in
    for v = 0 to t.n - 1 do
      if dist.(v) = half && dist.(v) + scratch.(v) = dist.(w) then root := v
    done;
    bfs_dist_into t !root dist;
    (* Nodes by decreasing level from the root. *)
    let order = Array.init t.n (fun v -> v) in
    Array.sort (fun a b -> compare dist.(b) dist.(a)) order;
    let i = ref 0 in
    while !i < t.n && 2 * dist.(order.(!i)) > !lb do
      bfs_dist_into t order.(!i) scratch;
      let e = ecc scratch in
      if e > !lb then lb := e;
      incr i
    done;
    !lb
  end

(* --- generators --- *)

let line n = create ~n ~edges:(List.init (n - 1) (fun i -> (i, i + 1)))

let cycle n =
  if n < 3 then invalid_arg "Graph.cycle: n < 3";
  create ~n ~edges:(List.init n (fun i -> (i, (i + 1) mod n)))

let star n =
  if n < 2 then invalid_arg "Graph.star: n < 2";
  create ~n ~edges:(List.init (n - 1) (fun i -> (0, i + 1)))

let clique n =
  let edges = ref [] in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      edges := (u, v) :: !edges
    done
  done;
  create ~n ~edges:!edges

let grid ~rows ~cols =
  let id r c = (r * cols) + c in
  let edges = ref [] in
  for r = 0 to rows - 1 do
    for c = 0 to cols - 1 do
      if c + 1 < cols then edges := (id r c, id r (c + 1)) :: !edges;
      if r + 1 < rows then edges := (id r c, id (r + 1) c) :: !edges
    done
  done;
  create ~n:(rows * cols) ~edges:!edges

let binary_tree n = create ~n ~edges:(List.init (n - 1) (fun i -> (i / 2, i + 1)))

let random_connected rng ~n ~extra_edges =
  (* Random attachment tree, then extra uniformly random non-tree edges. *)
  let edges = ref [] in
  let present = Hashtbl.create 16 in
  let add u v =
    let key = (min u v, max u v) in
    if u <> v && not (Hashtbl.mem present key) then begin
      Hashtbl.add present key ();
      edges := (u, v) :: !edges;
      true
    end
    else false
  in
  for v = 1 to n - 1 do
    ignore (add v (Util.Rng.int rng v))
  done;
  let budget = min extra_edges (((n * (n - 1)) / 2) - (n - 1)) in
  let added = ref 0 in
  while !added < budget do
    if add (Util.Rng.int rng n) (Util.Rng.int rng n) then incr added
  done;
  create ~n ~edges:!edges

let hypercube d =
  if d < 1 || d > 14 then invalid_arg "Graph.hypercube: dimension in 1..14";
  let n = 1 lsl d in
  let edges = ref [] in
  for v = 0 to n - 1 do
    for b = 0 to d - 1 do
      let u = v lxor (1 lsl b) in
      if v < u then edges := (v, u) :: !edges
    done
  done;
  create ~n ~edges:!edges

let torus ~rows ~cols =
  if rows < 3 || cols < 3 then invalid_arg "Graph.torus: rows, cols >= 3";
  let id r c = (r * cols) + c in
  let edges = ref [] in
  for r = 0 to rows - 1 do
    for c = 0 to cols - 1 do
      edges := (id r c, id r ((c + 1) mod cols)) :: !edges;
      edges := (id r c, id ((r + 1) mod rows) c) :: !edges
    done
  done;
  create ~n:(rows * cols) ~edges:!edges

let random_regular rng ~n ~degree =
  if degree < 2 || degree >= n then invalid_arg "Graph.random_regular: degree";
  if n * degree mod 2 <> 0 then invalid_arg "Graph.random_regular: n * degree odd";
  (* Pairing model with bounded retries per attempt; re-attempt until the
     result is connected.  The unsaturated-vertex pool is a swap-remove
     array and the edge count a counter, so one attempt is O(n·degree)
     expected — the previous List.length / rebuild-the-candidate-list
     body was O((n·degree)²) and took minutes at n = 10k. *)
  let attempt () =
    let present = Hashtbl.create (n * degree / 2) in
    let deg = Array.make n 0 in
    let edges = ref [] in
    let n_edges = ref 0 in
    let target = n * degree / 2 in
    (* pool.(0 .. pool_len-1) are the vertices with deg < degree;
       pos.(v) is v's index in pool, -1 once saturated. *)
    let pool = Array.init n (fun v -> v) in
    let pos = Array.init n (fun v -> v) in
    let pool_len = ref n in
    let saturate v =
      if deg.(v) >= degree && pos.(v) >= 0 then begin
        let i = pos.(v) and last = !pool_len - 1 in
        let w = pool.(last) in
        pool.(i) <- w;
        pos.(w) <- i;
        pos.(v) <- -1;
        pool_len := last
      end
    in
    let stuck = ref 0 in
    while !n_edges < target && !stuck < 200 && !pool_len >= 2 do
      let u = pool.(Util.Rng.int rng !pool_len) in
      let v = pool.(Util.Rng.int rng !pool_len) in
      let key = (min u v, max u v) in
      if u <> v && not (Hashtbl.mem present key) then begin
        Hashtbl.replace present key ();
        deg.(u) <- deg.(u) + 1;
        deg.(v) <- deg.(v) + 1;
        edges := (u, v) :: !edges;
        incr n_edges;
        saturate u;
        saturate v;
        stuck := 0
      end
      else incr stuck
    done;
    (* Patch phase: vertices the pairing left behind get wired to random
       non-adjacent vertices, tolerating degree + 1 at the target. *)
    for v = 0 to n - 1 do
      let guard = ref 0 in
      while deg.(v) < degree - 1 && !guard < 200 do
        incr guard;
        let u = Util.Rng.int rng n in
        let key = (min u v, max u v) in
        if u <> v && (not (Hashtbl.mem present key)) && deg.(u) <= degree then begin
          Hashtbl.replace present key ();
          deg.(u) <- deg.(u) + 1;
          deg.(v) <- deg.(v) + 1;
          edges := (u, v) :: !edges
        end
      done
    done;
    !edges
  in
  let rec go tries =
    if tries > 100 then invalid_arg "Graph.random_regular: could not build a connected graph";
    let edges = attempt () in
    match create ~n ~edges with g -> g | exception Invalid_argument _ -> go (tries + 1)
  in
  go 0

let bfs_tree ?(root = 0) t =
  let parent = Array.make t.n (-1) in
  let level = Array.make t.n 0 in
  parent.(root) <- root;
  level.(root) <- 1;
  let q = Queue.create () in
  Queue.add root q;
  let depth = ref 1 in
  while not (Queue.is_empty q) do
    let u = Queue.pop q in
    Array.iter
      (fun v ->
        if parent.(v) < 0 then begin
          parent.(v) <- u;
          level.(v) <- level.(u) + 1;
          depth := max !depth level.(v);
          Queue.add v q
        end)
      t.adj.(u)
  done;
  let children_lists = Array.make t.n [] in
  for v = t.n - 1 downto 0 do
    if v <> root then children_lists.(parent.(v)) <- v :: children_lists.(parent.(v))
  done;
  { root; parent; children = Array.map Array.of_list children_lists; level; depth = !depth }

let pp ppf t =
  Format.fprintf ppf "graph(n=%d, m=%d):" t.n (m t);
  Array.iter (fun (u, v) -> Format.fprintf ppf " %d-%d" u v) t.edges
