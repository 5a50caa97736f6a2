(** A simulated process: threads, memory, and the interpreter loop.

    A process executes the machine code of exactly one architecture. The
    Dapper runtime controls it through the ptrace-like API at the bottom
    of this interface (peek/poke memory and registers, thread statuses),
    mirroring how the real system drives a tracee (paper Section III-B/D2). *)

open Dapper_isa
open Dapper_binary

type thread_status =
  | Runnable
  | Blocked_join of int     (** waiting for a thread to exit *)
  | Blocked_lock of int64   (** waiting on the mutex at this address *)
  | Trapped                 (** executed the breakpoint; held by the monitor *)
  | Stopped                 (** SIGSTOP *)
  | Exited of int64

type thread = {
  tid : int;
  regs : bytes;                (** register file: 8 little-endian bytes per
                                   DWARF register; use {!reg}/{!set_reg} *)
  mutable pc : int64;
  mutable tls : int64;         (** TLS base register (FS base / TPIDR) *)
  mutable status : thread_status;
  mutable instrs : int64;      (** instructions retired by this thread *)
}

type crash = { cr_tid : int; cr_pc : int64; cr_reason : string }

(** Tap on the process's nondeterministic inputs (the record/replay
    plane's hook). [nd_syscall] sees every {e completed} syscall's result
    value and returns the value actually written to the return register:
    a recorder returns it unchanged, a replayer validates it against a
    log or substitutes the logged value (the instruction-count clock is
    the one input that legally differs between a live and a replayed
    run). Blocked syscall attempts never reach the tap — the retry that
    completes does. The ["exit"] event is record-only: its value is
    program state and the returned value is ignored. [nd_sched] fires
    after every interpreter slice with the instructions the thread
    retired before the round-robin moved on — the interleaving decision
    a same-ISA replay reproduces (slice lengths are ISA-specific, so
    cross-ISA replay ignores them). *)
type nondet = {
  nd_syscall : tid:int -> sys:string -> int64 -> int64;
  nd_sched : tid:int -> steps:int -> unit;
}

type t = {
  arch : Arch.t;
  mem : Memory.t;
  binary : Binary.t;
  mutable threads : thread list;
  mutable next_tid : int;
  mutable brk : int64;
  stdout_buf : Buffer.t;
  mutable exit_code : int64 option;
  mutable crash : crash option;
  mutable total_instrs : int64;
  mutable nondet : nondet option;  (** record/replay tap; [None] = untapped *)
  code : code_cache;
}

(** Decoded instructions of the process's .text, kept coherent with
    every store made through this module. *)
and code_cache

exception Exec_error of string

(** {1 Register file} *)

val reg : thread -> int -> int64
val set_reg : thread -> int -> int64 -> unit

(** Conversions between a register file and the [int64 array] a CRIU
    core image carries (one element per register). *)
val regs_to_array : bytes -> int64 array
val regs_of_array : int64 array -> bytes

(** [load binary] maps the data sections, arranges demand paging for code
    pages, and creates the main thread poised at the entry symbol with the
    process-exit stub as its bottom-of-stack return target. *)
val load : Binary.t -> t

(** [reconstruct binary mem ~threads ~brk] assembles a process from
    restored state — the CRIU restore path. The caller is responsible for
    memory contents and thread register state; code-page demand paging is
    installed exactly as in [load]. *)
val reconstruct : Binary.t -> Memory.t -> threads:thread list -> brk:int64 -> t

type run_result =
  | Progress   (** instruction budget exhausted, work remains *)
  | Idle       (** no runnable thread (all trapped/blocked/stopped) *)
  | Exited_run of int64
  | Crashed of crash

(** [run t ~max_instrs] interprets up to [max_instrs] instructions,
    round-robin across runnable threads. Deterministic. *)
val run : t -> max_instrs:int -> run_result

(** [run_to_completion t ~fuel] keeps running until exit, crash, idleness
    or the fuel limit. *)
val run_to_completion : t -> fuel:int -> run_result

val stdout_contents : t -> string
val thread : t -> int -> thread
val live_threads : t -> thread list

(** All threads quiescent at monitor-visible stop states (trapped,
    blocked, stopped or exited) — the condition for dumping. *)
val all_quiescent : t -> bool

(** Classification of mapped memory, used by the checkpointer. *)
type vma_kind = Vma_code | Vma_data | Vma_tls | Vma_heap | Vma_stack of int

val vma_kind_of_page : t -> int -> vma_kind option

(** {1 Observable state}

    A read-only digest of everything a migration must preserve, taken
    without pausing, faulting pages in, or perturbing any accounting —
    the conformance oracle snapshots both execution twins with this. *)

type snapshot = {
  sn_data : int64;   (** FNV-1a digest of mapped data pages; the runtime
                         transformation-flag word is masked out *)
  sn_heap : int64;   (** digest of mapped heap pages *)
  sn_tls : int64;    (** digest of mapped TLS pages *)
  sn_brk : int64;
  sn_threads : int;  (** live (non-exited) threads *)
  sn_stdout : string;
  sn_exit : int64 option;
}

(** [observe t] digests the current observable state. Only mapped pages
    are read (via raw page contents, never the fault handler); code and
    stack pages are excluded because their bytes are ISA-specific. *)
val observe : t -> snapshot

(** ISA-independent state equivalence: data/heap/TLS digests, brk and
    live-thread count. Output and exit status are compared separately by
    the oracle because a migrated twin restarts with empty stdout. *)
val state_equal : snapshot -> snapshot -> bool

val snapshot_to_string : snapshot -> string

(** Per-page digests of exactly the pages {!observe} folds (data, heap
    and TLS; transformation-flag word masked), in page-number order —
    diffing two processes' lists names the pages behind a snapshot
    mismatch. *)
val observe_pages : t -> (vma_kind * int * int64) list

(** ptrace-like control interface. *)

val peek_data : t -> int64 -> int64

(** [poke_data t addr v] writes the u64 [v] at [addr]; a write into
    .text drops the decoded instructions it may have changed, so the
    next execution there decodes the new bytes. *)
val poke_data : t -> int64 -> int64 -> unit
