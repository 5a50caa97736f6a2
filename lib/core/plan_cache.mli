(** Per-(source binary, destination binary, function) rewrite-plan cache.

    The rewriter makes the same frame-placement decisions on every
    migration of the same binary pair: which live values of a
    [(function, eqpoint)] are frame-resident on both sides and therefore
    feed the pointer-translation interval map. This module memoizes
    those decisions keyed by [(app, source arch, destination arch,
    function, eqpoint id)].

    Cached plans are {e offset-free}: they name live values by their
    cross-ISA keys and read concrete frame offsets through the current
    binaries' stack-map indexes at apply time. Stack shuffling only
    permutes offsets, so periodic re-randomization pays plan
    construction once — every epoch after the first hits the cache. A
    cached plan is validated against the offset-free {!shape} of the
    current equivalence-point pair before use, so a software update that
    changes a function's live set can never apply a stale plan. *)

open Dapper_isa
open Dapper_binary

type lv_shape = {
  s_key : Stackmap.lv_key;
  s_ty : Stackmap.lv_ty;
  s_size : int;
  s_frame : bool;   (** frame-resident (at some offset) vs register *)
}

type shape = {
  sh_src : lv_shape list;   (** source [ep_live], in order *)
  sh_dst : lv_shape list;   (** destination [ep_live], in order *)
}

type plan = {
  pl_shape : shape;
  pl_intervals : (Stackmap.lv_key * int) list;
    (** live values frame-resident on both sides: key + source size,
        in source [ep_live] order *)
}

(** Return the cached plan for the key when its shape matches, else
    derive, cache and return a fresh plan. *)
val lookup :
  app:string -> src_arch:Arch.t -> dst_arch:Arch.t -> fn:string -> ep_id:int ->
  src_ep:Stackmap.eqpoint -> dst_ep:Stackmap.eqpoint -> plan

(** {1 Observability} — process-global, monotone hit/miss counters.
    {!Rewrite} differences them around each rewrite to fill its
    per-run {!Rewrite.stats}; read those instead. *)

val hits : unit -> int
val misses : unit -> int

(** Drop all cached plans (the counters keep counting). *)
val clear : unit -> unit
