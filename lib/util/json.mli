(** Minimal JSON: one reader and the writers every exporter uses.

    The repo writes JSON in four places — trace exports
    ([Trace.Export]), metric snapshots ([Metrics.Expo]), bench and run
    reports, and the observatory history ([Obsv.Observatory]) — and
    re-parses its own artifacts: BENCH_*.json files, the observatory
    history and scenarios.  No
    JSON library is installed, so the reader is the subset those writers
    emit: the standard scalar/array/object grammar, [\uXXXX] escapes
    decoded as raw bytes, numbers as OCaml floats, and [null] for the
    nan/inf-as-null convention of {!num}.  [parse (str s) = Str s] for
    every byte string [s]. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val parse : string -> t
(** Parse one JSON document.  Raises [Failure] with a position-carrying
    message on malformed input or trailing garbage. *)

val parse_opt : string -> t option

(** {2 Accessors} — total; [None]/default on shape mismatch. *)

val member : string -> t -> t option
(** Field of an object ([None] for other shapes or missing keys). *)

val to_float : t -> float option
(** [Num] (also [Bool] as 0/1 — the observatory flattens booleans). *)

val to_string : t -> string option
val to_list : t -> t list
(** Elements of an [Arr]; [[]] for any other shape. *)

(** {2 Writers} — each returns rendered JSON text. *)

val str : string -> string
(** Quoted and escaped: double quote, backslash, newline and tab as
    two-character escapes, other bytes below 0x20 as [\u00XX], every
    other byte raw. *)

val num : float -> string
(** Fixed 6-decimal rendering; nan/inf become [null]. *)

val int : int -> string
val bool : bool -> string

val obj : (string * string) list -> string
(** Values must already be rendered JSON. *)

val arr : string list -> string
