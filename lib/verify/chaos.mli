(** The chaos harness: the migration oracle's invariant under injected
    faults.

    Each run parks a fresh source process at a seeded equivalence point
    of an example program, picks a seeded transport (eager or post-copy,
    possibly congested, always armed with {!Dapper_net.Transport.retrying}
    retransmission), and drives the full two-phase-commit
    {!Dapper.Session} pipeline under a seeded {!Dapper_util.Fault.t}
    schedule. The invariant enforced on every run:

    {e no injected fault ever loses or corrupts a process} — either the
    migration {b commits}, and the destination is observably identical
    to the paused source and runs to the native result; or it
    {b rolls back}, and the source is running again and runs to the
    native result. Anything else is a {!failure}.

    Both the fault schedule and the per-run choices derive from the run
    seed alone, so any chaos failure is replayable bit for bit from its
    seed. *)

open Dapper_isa
module Link = Dapper_codegen.Link

type verdict =
  | Committed
  | Rolled_back of Dapper_util.Dapper_error.t  (** the stage error that triggered it *)

type run_report = {
  cr_app : string;
  cr_src : Arch.t;
  cr_dst : Arch.t;
  cr_seed : int;
  cr_point : int;          (** equivalence point migrated at *)
  cr_transport : string;
  cr_mechanism : Dapper_traffic.Budget.mechanism option;
      (** the forced copy mechanism, if one was pinned *)
  cr_verdict : verdict;
  cr_faults : int;         (** faults the schedule injected *)
  cr_retransmits : int;    (** transfer + page retransmissions recovered *)
  cr_drained : int;        (** post-copy pages drained at commit *)
  cr_added_ms : float;     (** injected latency + retry backoff paid *)
}

type failure = {
  cf_app : string;
  cf_src : Arch.t;
  cf_dst : Arch.t;
  cf_seed : int;
  cf_what : string;
  cf_shadow : string option;
      (** divergence-localizing autopsy: when a committed destination's
          state differs from the paused source, the harness records a
          reference source run and shadow-replays the destination
          against it ({!Dapper_replay.Shadow.check}); the report names
          the first diverging anchor, thread and pages *)
}

type summary = {
  cs_runs : int;
  cs_committed : int;
  cs_rolled_back : int;
  cs_faults : int;
  cs_retransmits : int;
  cs_drained : int;
  cs_added_ms : float;
}

val verdict_name : verdict -> string
val run_report_to_string : run_report -> string
val failure_to_string : failure -> string
val summary_to_string : summary -> string

(** One seeded chaos run of [c], migrating [src]→[dst] under [spec].
    Defaults: [fuel] 50M, [budget] 50M. With [pipeline], the transfer
    stage streams the image in page-sized chunks
    ({!Dapper.Session.config.cfg_pipeline}) — faults landing mid-stream
    must still commit-or-rollback exactly like the sequential path.
    [mechanism] pins the copy style instead of drawing it from the run
    stream (eager for vanilla/pre-copy, post-copy for lazy/hybrid;
    pre-copy and hybrid warm the destination with fault-free rounds
    first) — the congestion draw and fault schedule stay seed-aligned
    with the unpinned run. *)
val run_one :
  ?fuel:int ->
  ?budget:int ->
  ?pipeline:bool ->
  ?mechanism:Dapper_traffic.Budget.mechanism ->
  spec:Dapper_util.Fault.spec ->
  seed:int ->
  src:Arch.t ->
  dst:Arch.t ->
  Link.compiled ->
  (run_report, failure) result

(** [sweep ~spec ~seeds ()] runs seeds [0..seeds-1] across the whole
    example corpus, alternating migration direction, stopping at the
    first invariant violation. [progress] is called per completed run. *)
val sweep :
  ?fuel:int ->
  ?budget:int ->
  ?pipeline:bool ->
  ?mechanism:Dapper_traffic.Budget.mechanism ->
  ?progress:(run_report -> unit) ->
  spec:Dapper_util.Fault.spec ->
  seeds:int ->
  unit ->
  (summary, failure) result
