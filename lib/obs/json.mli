(** Minimal JSON tree, printer and parser.

    Only what the trace sinks and the [amulet prof] reader need — no
    external dependency.  Integers stay integers on a round-trip
    (cycle counts must not pass through floats). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val to_buffer : Buffer.t -> t -> unit
val to_string : t -> string

exception Parse_error of string

val parse : string -> t
(** @raise Parse_error on malformed input. *)

(* Accessors (total: [None] on shape mismatch). *)

val member : string -> t -> t option
val to_int : t -> int option
val to_str : t -> string option
