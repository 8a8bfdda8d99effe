(** Undirected connected simple graphs G = (V, E): the communication
    networks of §2.1.  Nodes are 0..n−1; each edge is a bidirectional
    communication link carrying at most one symbol per round per
    direction. *)

type t

val create : n:int -> edges:(int * int) list -> t
(** [create ~n ~edges] builds the graph.  Raises [Invalid_argument] if the
    graph has self-loops, duplicate edges, out-of-range endpoints, or is
    not connected, all of which §2.1 excludes. *)

val n : t -> int
(** Number of parties. *)

val m : t -> int
(** Number of links. *)

val edges : t -> (int * int) array
(** The edge list; each edge appears once with endpoints in some order.
    The index of an edge in this array is its {e edge id}. *)

val neighbors : t -> int -> int array
(** Sorted adjacency. *)

val are_adjacent : t -> int -> int -> bool

val edge_id : t -> int -> int -> int
(** [edge_id g u v] is the id of edge {u,v}; raises [Not_found] if absent.
    Symmetric in u and v.  Allocation-free binary search over the sorted
    adjacency of the lower-degree endpoint (O(log deg)). *)

val neighbor_index : t -> int -> int -> int
(** [neighbor_index g v u] is the index of [u] inside [neighbors g v]
    (binary search; raises [Not_found] if the edge is absent) — lets
    per-party link tables be indexed without an O(n) lookup array per
    party, which at n = 10k would be O(n²) memory. *)

val dir_id : t -> src:int -> dst:int -> int
(** Identifier in [0, 2m) of the directed link src→dst:
    [2 * edge_id + (if src < dst then 0 else 1)]. *)

val dir_ends : t -> int -> int * int
(** [dir_ends g d] is the (src, dst) of directed link [d], the inverse
    of {!dir_id}: ids [2e] and [2e + 1] are edge [e] from its lower and
    from its higher endpoint.  A stored table: O(1), no allocation. *)

val degree : t -> int -> int
val max_degree : t -> int

val diameter : t -> int
(** Exact diameter (iFUB: double-sweep bound plus top-down eccentricity
    refinement — a handful of BFS passes on the generators here, instead
    of all-pairs BFS). *)

(** {2 Generators} *)

val line : int -> t
(** Path 0 — 1 — … — n−1 (the paper's recurring worst-case example). *)

val cycle : int -> t
val star : int -> t
(** Centre is node 0 (the topology of Jain–Kalai–Lewko). *)

val clique : int -> t
val grid : rows:int -> cols:int -> t
val binary_tree : int -> t
(** Complete-ish binary tree on n nodes rooted at 0. *)

val random_connected : Util.Rng.t -> n:int -> extra_edges:int -> t
(** A uniform random spanning tree (random attachment) plus [extra_edges]
    additional random non-parallel edges. *)

val hypercube : int -> t
(** The d-dimensional hypercube on 2^d nodes (1 ≤ d ≤ 14). *)

val torus : rows:int -> cols:int -> t
(** A 2D torus (grid with wraparound); requires rows, cols ≥ 3. *)

val random_regular : Util.Rng.t -> n:int -> degree:int -> t
(** A connected near-d-regular simple graph via random pairing with a
    patch phase; requires [n * degree] even and [2 <= degree < n].  All
    degrees land in [degree − 1, degree + 1]; connectivity is retried
    until achieved.  One attempt is O(n·degree) expected (swap-remove
    unsaturated-vertex pool), so n = 10k builds in milliseconds. *)

(** {2 Spanning trees (for the flag-passing phase)} *)

type tree = {
  root : int;
  parent : int array;  (** parent.(root) = root *)
  children : int array array;
  level : int array;  (** level.(root) = 1, as in Algorithm 3 *)
  depth : int;  (** max level *)
}

val bfs_tree : ?root:int -> t -> tree

val pp : Format.formatter -> t -> unit
