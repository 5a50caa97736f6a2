(** End-to-end live migration: pause -> dump -> rewrite -> copy ->
    restore, with the paper's cost breakdown (Fig. 5/7: checkpoint,
    recode, scp, restore).

    [migrate] is a thin driver over {!Session}: it builds a session
    config (picking an scp or page-server {!Transport.t} from
    [lazy_pages]/[link]) and runs the five typed stages, so per-stage
    costs come from the session's stage records and any stage failure
    resumes the source. The types below are re-exports of the session's;
    drive {!Session} directly for stage-level control.

    Execution inside the simulator is instruction-accurate; the phase
    times come from a calibrated cost model over the {e actual} work
    performed (pages dumped, live values rewritten, bytes transferred),
    so the shapes of the paper's figures — who wins, scaling with
    footprint, vanilla-vs-lazy crossover — are reproduced from first
    principles. [bytes_scale] compensates for the simulator's downscaled
    working sets when paper-magnitude byte counts are wanted (see
    EXPERIMENTS.md). *)

open Dapper_util
open Dapper_binary
open Dapper_machine
open Dapper_net

type phase_times = Session.phase_times = {
  t_checkpoint_ms : float;  (** pause + dump *)
  t_recode_ms : float;
  t_scp_ms : float;
  t_restore_ms : float;
}

val total_ms : phase_times -> float

type page_server_stats = Transport.page_stats = {
  mutable srv_pages : int;
  mutable srv_ns : float;
  mutable srv_retransmits : int;
  mutable srv_backoff_ns : float;  (** retry-backoff share of [srv_ns] *)
}

type result = Session.outcome = {
  r_process : Process.t;          (** restored process on the destination *)
  r_times : phase_times;
  r_image_bytes : int;
  r_rewrite : Rewrite.stats;
  r_pause : Monitor.pause_stats;
  r_page_server : page_server_stats option;  (** present in lazy mode *)
  r_transfer : Transport.tx_stats;           (** eager-transfer accounting *)
  r_drained : int;                (** post-copy pages pulled at commit *)
}

(** Migration failures are the unified {!Dapper_error.t};
    [Dapper_error.stage_of] recovers which stage failed. *)
type error = Dapper_error.t

val error_to_string : error -> string

(** Nanoseconds the recode phase takes on [node] for the given rewrite
    work (exposed for Fig. 5's recode-on-x86 vs recode-on-arm rows).
    [bytes] is the byte volume actually re-encoded; [?workers] > 1
    models multi-core recode (see {!Session.recode_ns}). *)
val recode_ns : Node.t -> ?workers:int -> bytes:int -> Rewrite.stats -> float

(** Checkpoint/restore cost for an image of the given (scaled) size on
    [node]. The costs are anchored on the nodes each phase was measured
    on in the paper (checkpoint on the Xeon, restore on the Pi) and
    scale with the node's relative core speed. *)
val checkpoint_ms : node:Node.t -> bytes:int -> float
val restore_ms : node:Node.t -> bytes:int -> float

(** Zero the process-global plan-cache and stack-map-index counters, so
    successive experiments' cost reports don't difference across each
    other's traffic. The per-rewrite counters in {!Rewrite.stats} are
    scoped to their run (attached {!Plan_cache.counters} sinks) and are
    not affected. *)
val reset_run_counters : unit -> unit

(** One-line migration cost report: phase times plus the index and
    rewrite-plan-cache counters ({!Rewrite.stats} observability
    fields). *)
val cost_report : result -> string

(** [src_node]/[dst_node] parameterize the checkpoint and restore costs
    (and [recode_on] defaults to [src_node]). [pipeline]/[chunk_bytes]
    stream recoded chunks into the transfer ({!Session.config});
    [recode_workers] spreads recode over the recode node's cores. All
    default to the sequential single-worker model. *)
val migrate :
  ?lazy_pages:bool ->
  ?link:Link.t ->
  ?recode_on:Node.t ->
  ?bytes_scale:float ->
  ?budget:int ->
  ?pipeline:bool ->
  ?chunk_bytes:int ->
  ?recode_workers:int ->
  src_node:Node.t ->
  dst_node:Node.t ->
  dst_bin:Binary.t ->
  src_bin:Binary.t ->
  Process.t ->
  (result, error) Stdlib.result
