(** CRIT — the CRIU image tool.

    Decodes protobuf image files into human-readable JSON and encodes
    them back (paper Section II). Dapper extends this interface with its
    rewriting sub-commands; here the codec itself is exposed so tests
    and tools can inspect and edit images as JSON. [pages-1.img] is raw
    memory and is passed through untouched, as in real CRIT. *)

open Dapper_util

exception Crit_error of string

(** [decode_file name bytes] pretty-decodes one image file. *)
val decode_file : string -> string -> Json.t

(** [encode_file name json] re-encodes; inverse of [decode_file]. *)
val encode_file : string -> Json.t -> string

val show : Images.image_set -> string
