(** Unified error surface for the migration pipeline.

    Every stage of a migration session — pause, dump, recode, transfer,
    restore — reports failures through the single variant {!t}, threaded
    as a [result] through the public APIs of [lib/criu] and [lib/core].
    The old per-module string exceptions ([Dump_error], [Restore_error],
    [Rewrite_error], [Unwind_error]) are gone from the public surface;
    internally modules may still raise the carrier exception {!Error}
    and convert it to a [result] at their boundary with {!protect}. *)

(** The pipeline stage an error belongs to, mirroring the session state
    machine (Paused -> Dumped -> Recoded -> Transferred -> Restored ->
    Committed). [Commit] is the two-phase-commit acknowledgement: the
    destination drains outstanding lazy pages and verifies its state
    before the paused source is released. *)
type stage = Pause | Dump | Recode | Transfer | Restore | Commit

val stage_name : stage -> string

type t =
  | Pause_budget_exhausted
      (** The drain budget ran out before all threads quiesced. *)
  | Not_at_equivalence_point of int * int64
      (** Thread [tid] stopped at [pc], which is not an equivalence
          point (e.g. a maliciously raised SIGTRAP). *)
  | Process_exited  (** The process ran to completion during the pause. *)
  | Dump_failed of string  (** Checkpoint image could not be produced. *)
  | Unwind_failed of string  (** Stack walk failed during recode. *)
  | Recode_failed of string  (** Cross-ISA state rewrite failed. *)
  | Shuffle_failed of string  (** Address-space re-randomization failed. *)
  | Layout_incompatible of string
      (** DSU: replacement binary changes the layout of a live frame. *)
  | Active_function of string
      (** DSU: a patched function is live on some stack. *)
  | Transfer_failed of string  (** Image transfer between nodes failed. *)
  | Transfer_timeout of string
      (** A transfer (or page fetch) exhausted its bounded retries; the
          link may recover, so the whole stage is worth re-attempting. *)
  | Checksum_mismatch of string
      (** A received payload failed its FNV-1a checksum — corruption in
          flight; transient (a retransmission delivers clean bytes). *)
  | Restore_failed of string  (** Image could not be materialized. *)
  | Source_lost of string
      (** The source's page server became unreachable during post-copy
          paging, before the destination was committed. Structural for
          this session: the restore is aborted and the paused source
          (still held by its supervisor) is resumed. *)
  | Node_lost of string
      (** A destination node died mid-eviction. The migration rolls
          back; retriable because the scheduler can re-run the eviction
          on another node. *)
  | Commit_failed of string
      (** The destination's verified-restore acknowledgement failed (its
          observable state does not match the paused source). The source
          resumes; the half-restored destination is discarded. *)
  | Verify_failed of string
      (** Conformance verification found a violated invariant: a corrupt
          stack map (static verifier) or a state divergence between the
          source and the migrated twin (migration oracle). Structural —
          never retriable — and attributed to the recode stage, whose
          compiler→rewriter contract it polices. *)
  | Deadline_exceeded of stage * float
      (** A watchdog cancelled [stage] before running it because its
          projected cost (the carried ms) would blow the remaining pause
          budget. Retriable: the projection came from transient link or
          load conditions, and a later attempt (other transport, other
          rack, healthier history) can fit. *)

val to_string : t -> string

(** The stage that produced the error. *)
val stage_of : t -> stage

(** [retriable e] is true for transient errors where letting the source
    run further and re-attempting the stage can succeed (pause-budget
    exhaustion, a still-active function, a timed-out or corrupted
    transfer, a lost destination node); false for structural errors
    (arch mismatch, corrupt image, a lost source) that will fail
    identically again. The implementation is an exhaustive match — a
    new constructor does not compile until it is classified. *)
val retriable : t -> bool

(** One value per constructor, for exhaustive classification tests. *)
val examples : t list

(** Internal carrier, raised inside [lib/criu]/[lib/core] and converted
    back to a [result] at public boundaries. It must not escape them. *)
exception Error of t

(** [failf wrap fmt ...] raises {!Error} with [wrap msg]. *)
val failf : (string -> t) -> ('a, unit, string, 'b) format4 -> 'a

(** [protect f] runs [f ()], catching {!Error} as [Error t]. Foreign
    exceptions propagate unchanged. *)
val protect : (unit -> 'a) -> ('a, t) result

(** Unwrap [Ok], re-raising [Error e] as the carrier exception — for
    call sites already inside a {!protect} region (or tests/benches
    where failure is a bug). *)
val ok_exn : ('a, t) result -> 'a
