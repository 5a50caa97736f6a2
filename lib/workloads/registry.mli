(** The benchmark registry: one entry per application the paper
    evaluates, with compiled binaries cached per architecture. *)

open Dapper_codegen

type spec = {
  sp_name : string;
  sp_modul : Dapper_ir.Ir.modul Lazy.t;
  sp_threads : int;    (** worker threads the app spawns (0 = serial) *)
  sp_kind : [ `Npb | `Parsec | `Server | `Hpc ];
}

(** All benchmarks at their default (class-A-like) sizes. *)
val all : unit -> spec list

val parsec : unit -> spec list

val find : string -> spec

(** Compile (and memoize) a spec with the default backend options. *)
val compiled : spec -> Link.compiled
