(** Pretty-printers for simulation results — the single place that knows
    how to render a {!Scheme.result} for humans (CLI, examples,
    notebooks).  All printers are [Fmt]-style so they compose. *)

val pp_summary : Format.formatter -> Scheme.result -> unit
(** One line: success, CC, blowup, corruptions, iterations. *)

val pp_trace : Format.formatter -> Scheme.iter_stat list -> unit
(** The per-iteration table (G*, H*, B*, links in MP, Σ G progress bar). *)

val pp_params : Format.formatter -> Params.t -> unit

val verdict : Scheme.result -> string
(** "OK" / "FAILED (k parties wrong)". *)
