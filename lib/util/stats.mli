(** Small statistics helpers used by the benchmark harness. *)

val mean : float list -> float
val stddev : float list -> float
val median : float list -> float
val percentile : float -> float list -> float
(** [percentile p xs] with [p] in [0,1]; nearest-rank on the sorted list. *)

val percentile_arr : float -> float array -> float
(** [percentile_arr p xs]: nearest-rank percentile of an array (sorts a
    copy; the argument is not modified).  nan on the empty array. *)

val wilson_interval : successes:int -> trials:int -> float * float
(** 95% Wilson score interval for a binomial proportion. *)

val histogram : bins:int -> float list -> (float * int) array
(** [histogram ~bins xs] returns [(bin_lower_edge, count)] pairs. *)
