(** Dynamic software update — another transformation policy on top of
    the same pause/dump/rewrite/restore mechanism (paper Sections I and
    III-A name live software updating as an example policy).

    [update] replaces a running process's binary with a freshly compiled
    version of the program. It is safe when:

    - the new binary's symbols land at the same addresses (the linker's
      per-function padding usually absorbs small body changes; checked);
    - no thread is currently suspended inside a function whose
      equivalence-point structure changed (the classic DSU activeness
      restriction; checked against the unwound stacks);
    - every updated function keeps its signature (arity is part of the
      call-site records; checked structurally).

    Under those conditions the generic rewriter carries the process
    state across: untouched functions rewrite 1:1, and the changed
    functions simply get their new code pages. *)

open Dapper_util
open Dapper_machine
open Dapper_binary

(** Functions whose code bytes differ between the two binaries. *)
val changed_functions : old_bin:Binary.t -> new_bin:Binary.t -> string list

(** [update p ~old_bin ~new_bin] hot-swaps the running process [p] onto
    [new_bin] (same architecture), returning the updated process.
    Failures are {!Dapper_error.t}s: [Layout_incompatible] (a symbol
    moved; the new version cannot be hot-applied), [Active_function]
    (some thread is suspended inside a changed function), plus the
    pause/dump/recode/restore errors of the shared pipeline. On error,
    [p] is left paused; call {!Monitor.resume} to continue it on the old
    version. *)
val update :
  ?retries:int ->
  Process.t -> old_bin:Binary.t -> new_bin:Binary.t -> (Process.t, Dapper_error.t) result
