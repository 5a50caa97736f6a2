(** Minimal JSON representation used by the CRIT image tool.

    CRIU's CRIT utility decodes protobuf process images into human-readable
    JSON and encodes them back; this module provides the JSON side of that
    bridge without external dependencies. *)

type t =
  | Null
  | Bool of bool
  | Int of int64
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(** Pretty-print with two-space indentation. *)
val to_string : t -> string

(** Parse a JSON document. Raises [Parse_error] on malformed input. *)
val of_string : string -> t

exception Parse_error of string

(** Accessors; raise [Parse_error] when the shape does not match. *)

val member : string -> t -> t
val member_opt : string -> t -> t option
val to_int : t -> int64
val to_float : t -> float
val to_bool : t -> bool
val to_str : t -> string
val to_list : t -> t list
