(** User-defined transformation policies (paper Section III: "DAPPER
    allows end-users to define different transformation policies").

    A policy is what to do with a paused process's image; this module is
    the uniform entry point over the concrete transformations:

    - {!Cross_isa}: rewrite for the other architecture's binary
      (live heterogeneous migration);
    - {!Reshuffle}: permute the stack layout and move the process onto
      the shuffled binary (moving-target defense);
    - {!Software_update}: hot-swap a new program version
      ({!Dsu.update});
    - {!Identity}: plain checkpoint/restore (same binary), CRIU-style.

    Each application returns the resulting process and the binary it now
    runs under, so policies chain (e.g. periodic re-randomization). *)

open Dapper_util
open Dapper_machine
open Dapper_binary

type t =
  | Identity
  | Cross_isa of Binary.t          (** destination binary *)
  | Reshuffle of Rng.t
  | Software_update of Binary.t    (** new version, same architecture *)

type applied = {
  ap_process : Process.t;
  ap_binary : Binary.t;   (** the binary the new process runs under *)
}

(** [apply p ~current policy] pauses [p] (if not already quiescent),
    transforms it per [policy], and restores the result. [current] is
    the binary [p] currently runs under. [report] is called with the
    rewrite statistics (including plan-cache and index counters) of the
    transformation; it is not called for {!Software_update}, which
    delegates to {!Dsu.update}. Failures are pause or pipeline errors
    ([Dump_failed], [Recode_failed], ...), [Shuffle_failed] or a DSU
    variant. *)
val apply :
  ?report:(Rewrite.stats -> unit) ->
  Process.t -> current:Binary.t -> t -> (applied, Dapper_error.t) result

(** [rerandomize_periodically p ~current ~rng ~interval ~epochs ~fuel]
    alternates bursts of execution with {!Reshuffle} applications —
    the paper's "periodically re-randomizing the function call stack".
    Returns the final state and the number of completed epochs (the
    process may exit early). *)
val rerandomize_periodically :
  ?report:(int -> Rewrite.stats -> unit) ->
  Process.t -> current:Binary.t -> rng:Rng.t -> interval:int -> epochs:int ->
  (applied * int, Dapper_error.t) result
