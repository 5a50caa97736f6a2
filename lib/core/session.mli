(** Migration sessions: the paper's pipeline as an explicit, typed state
    machine with two-phase-commit semantics.

    A live migration proceeds [Paused -> Dumped -> Recoded ->
    Transferred -> Restored -> Committed]; each transition is a
    [result]-returning step over a state-indexed session value, so a
    driver can only apply stages in order, and per-stage timing, retry,
    and rollback-with-resume fall out of the structure:

    - every completed step appends a {!stage_record} carrying that
      stage's modeled cost contribution (the per-phase breakdown of
      Fig. 5/7 is just {!times} over the log);
    - any step may fail with a {!Dapper_error.t}; {!rollback} (called
      automatically by every step and by {!run}) un-pauses the source so
      a failed migration never strands the process at its equivalence
      points;
    - {!retry} re-runs a step while its error is transient
      ({!Dapper_error.retriable} by default).

    The two-phase-commit discipline: the paused source is the commit
    point's fallback until {!commit} succeeds — the destination must
    survive to the acknowledgement, (optionally) drain every outstanding
    post-copy page, and present observable state identical to the paused
    source. Any failure before that acknowledgement — including a
    destination crash after a successful restore — rolls back to a
    running source; only a successful commit transfers ownership.

    The eager-vs-lazy distinction lives in the session's
    {!Transport.t}: a lazy transport makes [dump] keep non-essential
    pages on the source and [restore] install a demand-page source
    served (with accounting) from the paused source process.

    Fault injection: when {!config.cfg_fault} carries a {!Fault.t}
    schedule, the transfer stage, the lazy page path and the
    restore/commit stages consult it — transfers may be dropped,
    corrupted or delayed (detected by checksums, recovered by a
    {!Transport.retrying} policy), the source's page server may become
    unreachable mid-paging, and the destination may fail during restore
    or before the commit acknowledgement. *)

open Dapper_util
open Dapper_binary
open Dapper_machine
open Dapper_criu
open Dapper_net

(** {1 Configuration} *)

type config = {
  cfg_src_node : Node.t;       (** where the process runs now *)
  cfg_dst_node : Node.t;       (** where it resumes *)
  cfg_recode_node : Node.t;    (** where the state rewrite executes *)
  cfg_transport : Transport.t; (** eager scp or lazy page-server *)
  cfg_src_bin : Binary.t;
  cfg_dst_bin : Binary.t;
  cfg_bytes_scale : float;     (** footprint multiplier for cost modeling *)
  cfg_pause_budget : int;      (** drain budget (instructions) for pause *)
  cfg_commit_drain : bool;
  (** drain all outstanding post-copy pages at commit, removing the
      destination's dependence on the source before ownership transfers
      (default off: commit is verification/ack only, preserving lazy
      page-fault accounting) *)
  cfg_fault : Fault.t option;  (** chaos plane; [None] = clean run *)
  cfg_pipeline : bool;
  (** stream recoded chunks into the transfer stage so recode time
      hides under transmission (the transfer stage then charges only
      the pipeline makespan's excess over the recode cost, plus any
      fault/retry surcharge). Wire semantics — faults, checksums,
      retransmission, commit/rollback — are unchanged. Default off:
      the sequential cost model of the paper's figures. *)
  cfg_chunk_bytes : int;
  (** producer/consumer chunk size for [cfg_pipeline] (default 256
      KiB). Each chunk pays the link's per-transfer latency, so
      smaller chunks overlap more but cost more wire time. *)
  cfg_recode_workers : int;
  (** recode worker count, clamped to [1 ..
      cfg_recode_node.n_cores]. 1 (default) is the exact sequential
      cost model; more workers divide the recode critical path at
      page granularity. *)
  cfg_resident_pages : int list;
  (** pages already materialized at the destination by {!precopy}
      rounds (pass [pcs_resident]). Transfer and eager restore charge
      for the image minus these pages' overlap with the dump; a lazy
      restore maps them immediately instead of demand-fetching, so only
      the pre-copy residual pays the post-copy fault tail (hybrid
      pre+post-copy). [[]] (default) is the classic behaviour, bit for
      bit. *)
}

(** Xeon-to-Pi over infiniband scp with the standard drain budget — the
    paper's testbed defaults. No commit drain, no faults. *)
val default_config : src_bin:Binary.t -> dst_bin:Binary.t -> config

(** {1 Per-stage cost model}

    Calibrated against the paper's measurements (EXPERIMENTS.md,
    "Calibration"). Checkpoint cost is anchored on the Xeon and restore
    cost on the Pi — the nodes each phase was measured on — and scale
    with the executing node's speed relative to its anchor. *)

val checkpoint_ms : node:Node.t -> bytes:int -> float
val restore_ms : node:Node.t -> bytes:int -> float

(** [recode_ns node ~bytes stats] models the state rewrite: per-work-item
    and per-byte costs scaled by the node architecture's measured recode
    slowdown (paper Fig. 5). [bytes] is the byte volume actually
    re-encoded (the scaled image size) — explicit
    so callers cannot silently drop the dominant term. With [?workers]
    > 1 (clamped to the node's cores) the cost is the work-queue
    critical path: ceil shares of the work items and of the
    page-granular byte slices on the most-loaded core. [workers = 1]
    (default) is exactly the sequential formula. *)
val recode_ns : Node.t -> ?workers:int -> bytes:int -> Rewrite.stats -> float

(** {1 Iterative pre-copy}

    The anti-blackout prologue: stream memory while the source still
    serves, so the stop-and-copy window only carries what changed. *)

(** One pre-copy round: the pages it shipped, their scaled wire bytes,
    and the wire time the source kept serving through. *)
type precopy_round = {
  pr_round : int;   (** 1-based *)
  pr_pages : int;
  pr_bytes : int;
  pr_ms : float;
}

type precopy_stats = {
  pcs_rounds : precopy_round list;  (** in execution order *)
  pcs_pages_sent : int;   (** multiset total across rounds (re-sends count) *)
  pcs_bytes_sent : int;   (** scaled wire bytes across rounds *)
  pcs_ms : float;         (** total round time (not downtime — source live) *)
  pcs_resident : int list;
  (** pages clean at the destination, sorted — feed to
      {!config.cfg_resident_pages} *)
  pcs_residual : int list;
  (** pages still dirty after the last round, sorted — they move during
      the blackout (vanilla) or fault in after restore (hybrid) *)
}

(** [precopy cfg p ~advance ~max_rounds ~downtime_budget_ms] runs
    iterative pre-copy rounds over the live source [p]: round 1 ships
    every candidate page (the dump set minus clean code pages); [advance
    ms] runs the source for each round's wire time (dirty-page tracking
    is enabled around it); each later round re-ships the pages dirtied
    during the previous one. Stops when the dirty set would transfer
    within [downtime_budget_ms], stops shrinking, or [max_rounds] is
    reached. Never pauses the source, never fails; tracking is always
    disabled on exit, so abandoning the migration afterwards leaves the
    source exactly as before — the rollback story of the later stages is
    unchanged. *)
val precopy :
  config ->
  Process.t ->
  advance:(float -> unit) ->
  max_rounds:int ->
  downtime_budget_ms:float ->
  precopy_stats

(** {1 Phase times} *)

type phase_times = {
  t_checkpoint_ms : float;
  t_recode_ms : float;
  t_scp_ms : float;
  t_restore_ms : float;
}

val total_ms : phase_times -> float

(** One completed stage, its modeled cost, and the byte volume it
    charged for ([sr_bytes] = 0 for stages that charge none — pause,
    lazy restore, commit). Explicit byte accounting lets the overlap
    math and the sequential totals be reconciled from the log alone. *)
type stage_record = { sr_stage : Dapper_error.stage; sr_ms : float; sr_bytes : int }

(** {1 The session state machine} *)

type 'st t = private {
  s_cfg : config;
  s_source : Process.t;
  s_log : stage_record list;  (** completed stages, most recent first *)
  s_tx : Transport.tx_stats;  (** this session's transfer accounting *)
  s_state : 'st;
}

(** Per-state payloads: each stage's evidence travels with the typed
    session, so a later stage cannot run without it. *)

type ready = Ready

type paused = { sp_pause : Monitor.pause_stats }

type dumped = {
  sd_pause : Monitor.pause_stats;
  sd_image : Images.image_set;
  sd_dump : Dump.stats;
}

type recoded = {
  sc_pause : Monitor.pause_stats;
  sc_image : Images.image_set;
  sc_rewrite : Rewrite.stats;
  sc_image_bytes : int;
  sc_dump_pages : int;  (** dump-time page population, eager plus lazy *)
}

type transferred = {
  sx_pause : Monitor.pause_stats;
  sx_image : Images.image_set;
  sx_rewrite : Rewrite.stats;
  sx_image_bytes : int;
  sx_dump_pages : int;
}

type restored = {
  sf_pause : Monitor.pause_stats;
  sf_rewrite : Rewrite.stats;
  sf_image_bytes : int;
  sf_dump_pages : int;
  sf_process : Process.t;
  sf_page_server : Transport.page_stats option;
  sf_lazy_pages : int list;  (** pages still owed by the source *)
}

type committed = {
  sm_pause : Monitor.pause_stats;
  sm_rewrite : Rewrite.stats;
  sm_image_bytes : int;
  sm_dump_pages : int;
  sm_lazy_debt : int;  (** post-copy pages still owed after the drain *)
  sm_process : Process.t;
  sm_page_server : Transport.page_stats option;
  sm_drained : int;  (** post-copy pages pulled at commit *)
}

val start : config -> Process.t -> ready t

(** Quiesce the source at equivalence points. *)
val pause : ready t -> (paused t, Dapper_error.t) result

(** Checkpoint the quiesced source into an image set (lazy transports
    keep non-essential pages on the source). *)
val dump : paused t -> (dumped t, Dapper_error.t) result

(** Rewrite the image for the destination binary/ISA. *)
val recode : dumped t -> (recoded t, Dapper_error.t) result

(** Move the (eager part of the) image over the transport: serialized to
    its named files, checksummed, exposed to the fault plane, and — under
    a {!Transport.retrying} policy — retransmitted on drop/corruption. *)
val transfer : recoded t -> (transferred t, Dapper_error.t) result

(** Materialize the destination process; lazy transports install a
    demand-page source served from the paused source process. The fault
    plane may fail the destination here ([Restore_failed]). *)
val restore : transferred t -> (restored t, Dapper_error.t) result

(** The second phase of two-phase commit: the destination acknowledges a
    verified restore, after which (and only after which) the source may
    be discarded. With [cfg_commit_drain], first pulls every outstanding
    post-copy page through the fault-aware checksummed fetch path.
    Failure modes — destination lost before the ack ([Commit_failed],
    injected), page server unreachable mid-drain ([Source_lost]), drain
    retries exhausted ([Transfer_timeout]), or destination state not
    matching the paused source ([Commit_failed]) — all roll back to a
    running source. *)
val commit : restored t -> (committed t, Dapper_error.t) result

(** Un-pause the source (no-op if it already exited). Safe in any state;
    the steps and {!run} call it on failure so callers only need it when
    driving stages by hand and abandoning a session mid-way. *)
val rollback : _ t -> unit

(** Completed stage records, in execution order. *)
val stage_log : _ t -> stage_record list

val times : _ t -> phase_times

(** This session's eager-transfer accounting (attempts, retransmissions,
    detected corruption, injected latency). *)
val transfer_stats : _ t -> Transport.tx_stats

(** [retry ~attempts f] runs [f] up to [attempts] times, re-running
    while [should_retry] (default {!Dapper_error.retriable}) accepts the
    error; [before_retry] runs between attempts (e.g. let the source
    execute a little further). *)
val retry :
  attempts:int ->
  ?should_retry:(Dapper_error.t -> bool) ->
  ?before_retry:(unit -> unit) ->
  (unit -> ('a, Dapper_error.t) result) ->
  ('a, Dapper_error.t) result

(** {1 Driving a whole migration} *)

(** The classic migration result, assembled from a committed session. *)
type outcome = {
  r_process : Process.t;
  r_times : phase_times;
  r_image_bytes : int;
  r_rewrite : Rewrite.stats;
  r_pause : Monitor.pause_stats;
  r_page_server : Transport.page_stats option;
  r_transfer : Transport.tx_stats;
  r_drained : int;
  r_dump_pages : int;
      (** dump-time page population, eager plus lazy: the post-copy
          fault tail's denominator *)
  r_lazy_debt : int;
      (** post-copy pages the source still owes once committed: the
          restore's debt minus what the commit drain pulled; 0 for eager
          transports *)
}

val finish : committed t -> outcome

(** One-line migration cost report: phase times plus the index and
    rewrite-plan-cache counters ({!Rewrite.stats} observability
    fields). *)
val cost_report : outcome -> string

(** Run all six stages in order. On any stage failure the source is
    resumed ({!rollback}) and the stage's error returned. *)
val run : config -> Process.t -> (committed t, Dapper_error.t) result
