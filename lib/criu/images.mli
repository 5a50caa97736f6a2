(** CRIU process-image set.

    A checkpoint is a set of named image files, most in protobuf format
    (paper Section II / III-D2):

    - [core-<tid>.img]  — per-thread registers, pc, TLS base
    - [mm.img]          — brk and VMA list
    - [pagemap.img]     — which virtual pages are populated, and whether
                          their contents are in the dump or left lazy
    - [pages-1.img]     — raw page contents (not protobuf)
    - [files.img]       — the executable identity (app name, architecture)

    The Dapper rewriter transforms a serialized image set into another
    serialized image set; these codecs are the only way in and out. *)

open Dapper_isa

type thread_core = {
  tc_tid : int;
  tc_arch : Arch.t;
  tc_regs : int64 array;  (** indexed by DWARF register number; 33 entries *)
  tc_pc : int64;
  tc_tls : int64;
}

type vma_kind = Vk_code | Vk_data | Vk_tls | Vk_heap | Vk_stack of int

type vma = { v_start : int64; v_npages : int; v_kind : vma_kind }

type mm = { mm_brk : int64; mm_vmas : vma list }

type pagemap_entry = {
  pm_vaddr : int64;
  pm_npages : int;
  pm_in_dump : bool;  (** false: page stays on the source node (lazy) *)
}

type files_img = { fi_app : string; fi_arch : Arch.t }

type image_set = {
  is_cores : thread_core list;
  is_mm : mm;
  is_pagemap : pagemap_entry list;
  is_pages : string;   (** raw contents of dumped pages, in pagemap order *)
  is_files : files_img;
}

exception Image_error of string

(** Per-file protobuf codecs (used by CRIT). *)

val encode_core : thread_core -> string
val decode_core : string -> thread_core
val encode_mm : mm -> string
val decode_mm : string -> mm
val encode_pagemap : pagemap_entry list -> string
val decode_pagemap : string -> pagemap_entry list
val encode_files : files_img -> string
val decode_files : string -> files_img

(** Serialize to the named-file representation (protobuf per file). *)
val to_files : image_set -> (string * string) list

(** Parse back from files. Raises [Image_error] on malformed input. *)
val of_files : (string * string) list -> image_set

(** Total byte size — the quantity the scp cost model charges. *)
val total_bytes : image_set -> int

(** {1 Content checksums}

    The FNV-1a digest the transfer layer verifies on arrival (and
    retransmits on mismatch). *)

(** A single digest over every file name and its contents, in
    [to_files] order — the whole-image integrity check. *)
val checksum : image_set -> int64

(** Convenience: read/overwrite one dumped page. *)
val read_page : image_set -> int -> string option
val write_page : image_set -> int -> string -> image_set

(** Read/write a 64-bit value inside a dumped page (fails on lazy or
    unmapped addresses). *)
val read_u64 : image_set -> int64 -> int64
val write_u64 : image_set -> int64 -> int64 -> image_set
