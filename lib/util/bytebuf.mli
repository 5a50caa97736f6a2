(** Growable byte buffer with little-endian fixed-width accessors.

    Used for machine-code emission, raw page contents, and image
    serialization throughout the tree. *)

type t

val create : int -> t
val length : t -> int
val contents : t -> string
val of_string : string -> t

(** Appending. *)

val add_u8 : t -> int -> unit
val add_u16 : t -> int -> unit
val add_u32 : t -> int -> unit
val add_i64 : t -> int64 -> unit
val add_bytes : t -> string -> unit

(** Random-access reads over a string (decoder side). Raise
    [Invalid_argument] when out of bounds. *)

val get_u8 : string -> int -> int
val get_u16 : string -> int -> int
val get_u32 : string -> int -> int
val get_i64 : string -> int -> int64

(** {1 Content digest}

    FNV-1a (64-bit) is the tree's only content digest: per-page and
    per-image checksums on image transfers, replay-log checksums,
    [Process.observe] snapshots and the load-plane fingerprints all use
    these functions. Every fold loops over its whole range without
    allocating. *)

(** The standard FNV-1a-64 offset basis: the digest of the empty input. *)
val fnv64_offset : int64

(** [fnv64 s] digests [s] from the standard offset basis. *)
val fnv64 : string -> int64

(** [fnv64_fold h s] continues a digest [h] over [s], for multi-part
    payloads (file name + contents, page runs). *)
val fnv64_fold : int64 -> string -> int64

(** [fnv64_sub h s off len] continues [h] over [s.[off] .. s.[off+len-1]]
    in place: equal to [fnv64_fold h (String.sub s off len)] without the
    copy. Raises [Invalid_argument] when the range is out of bounds. *)
val fnv64_sub : int64 -> string -> int -> int -> int64

(** [fnv64_bytes h b off len] is {!fnv64_sub} over a [bytes] range. *)
val fnv64_bytes : int64 -> bytes -> int -> int -> int64

(** [fnv64_int h n] continues [h] over the 8 little-endian bytes of [n]. *)
val fnv64_int : int64 -> int -> int64

(** [fnv64_mix h v] mixes a whole 64-bit word in one FNV-1a step
    ([(h xor v) * prime]), for fingerprints folded over numeric
    results rather than bytes. *)
val fnv64_mix : int64 -> int64 -> int64
