(** The Dapper runtime monitor (paper Sections III-B and III-D2).

    Drives a live process into a transformable state: raises the
    transformation flag (PTRACE_POKEDATA on the checker's global), lets
    every thread run to its next equivalence point where the inline
    checker hits the breakpoint, validates each trapped pc against the
    stack maps, rolls threads blocked in syscalls back to the call-site
    equivalence point just before the synchronization primitive (the
    setjmp rollback of Section III-B), and finally stops the whole
    process so CRIU can dump it. *)

open Dapper_util
open Dapper_machine

type pause_stats = {
  ps_instrs_drained : int64;  (** instructions executed while draining *)
  ps_trapped : int;           (** threads that stopped at a checker trap *)
  ps_rolled_back : int;       (** blocked threads rolled back to a call site *)
}

(** [request_pause p ~budget] quiesces the process, leaving every live
    thread [Stopped] at an equivalence point. Failures are
    {!Dapper_error.t}s: [Pause_budget_exhausted] (some thread never
    reached an equivalence point within the drain budget),
    [Not_at_equivalence_point] and [Process_exited]. On failure the
    process is left untouched except for consumed execution budget; call
    [cancel] to lower the flag and resume. *)
val request_pause : Process.t -> budget:int -> (pause_stats, Dapper_error.t) result

(** Lower the flag and resume all stopped threads (abort a pause). *)
val cancel : Process.t -> unit

(** Resume a paused process on the same node (flag lowered first). *)
val resume : Process.t -> unit
