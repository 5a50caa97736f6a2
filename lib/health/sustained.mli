(** Sustained-chaos runs: the whole health plane under one roof.

    Each seeded run draws a {e correlated} fault scenario — one
    destination rack (or, a quarter of the time, every rack) turns bad
    for a window around the scheduled migration: its wire slows 4-8x
    and payloads start dropping, corrupting, delaying, and failing
    restores. A migration control loop then drives the job to its
    destination through bounded attempts, while {!Dapper_traffic.Loadgen}'s
    request plane ({!Dapper_traffic.Loadgen.play}) measures what the
    tenant's clients saw: per-request latency (with every attempt's
    blackout window and the post-copy fault tail in the path),
    availability against an SLO, and the during-migration tail. The
    run works out the migration timeline — every attempt's window, the
    resume (none after a rollback), the lazy-page debt and the fault
    stall on the landing rack — and the request loop plays it.

    With [su_control = true], the loop runs the full self-healing
    plane: per-rack {!Breaker}s (tripped racks are shed via
    {!Dapper_cluster.Placement.Latency_aware}), rack {!Quarantine},
    the {!Guard} watchdog with a shared {!Deadline} store (cancel +
    rollback instead of a blown blackout), the {!Degrade} ladder
    (budget-infeasible and deadline-cancel signals walk it down;
    bottoming out postpones with capped exponential backoff and
    re-evaluates from scratch). With [su_control = false], the same
    scenario is replayed against a naive loop: always the planned
    rack, one fixed mechanism, no cancellation — only the transport's
    own retries between attempts.

    Either way every attempt is bounded ({!max_attempts}) and ends
    in an explicit commit or an explicit 2PC rollback with the source
    still running — there are no lost states and no unbounded retry
    loops, by construction.

    Every run has the same fixed shape: 8 lanes at 4 requests/ms
    (Poisson), 1.2 ms mean service on the source and 1.0 ms on the
    destination, a 25 ms SLO, 4 destination racks of 2 page servers, a
    blackout budget of 1.2x the calibrated healthy stop-and-copy
    blackout, and pre-copy rounds of 20k source instructions, at most
    6. *)

type cfg = {
  su_requests : int;          (** request-plane draws per run *)
  su_migrate_at_ms : float;   (** when the eviction is scheduled *)
  su_control : bool;          (** health plane on or off *)
}

(** 20k requests, migrate at 1 s, control on. *)
val default_cfg : cfg

(** The hard bound on migration attempts per run (16). *)
val max_attempts : int

type scenario = {
  sc_bad_rack : int;
  sc_all_racks_bad : bool;
  sc_degrade : float;
  sc_fault_prob : float;
  sc_bad_from_ms : float;
  sc_bad_until_ms : float;
}

type verdict = Committed | Degraded of Degrade.rung | Rolled_back

val verdict_name : verdict -> string

(** One timestamped control-plane decision, for the degradation trace:
    kinds are [degrade], [postpone], [shed], [breaker-trip],
    [deadline-cancel], [commit], [rollback]. *)
type event = { ev_ms : float; ev_kind : string; ev_detail : string }

type run = {
  r_seed : int64;
  r_scenario : scenario;
  r_verdict : verdict;
  r_attempts : int;
  r_postpones : int;
  r_sheds : int;
  r_trips : int;              (** breaker trips, summed over racks *)
  r_cancels : int;            (** watchdog deadline cancels *)
  r_final_rack : int option;  (** where the job landed, if it did *)
  r_blackout_ms : float;      (** summed over every attempt's window *)
  r_requests : int;
  r_ok : int;                 (** requests within the SLO *)
  r_availability : float;
  r_all : Dapper_traffic.Sketch.t;
  r_during : Dapper_traffic.Sketch.t;
  r_events : event list;      (** chronological *)
  r_fingerprint : int64;
}

(** [run cfg scfg ~fresh ~seed] — one seeded run. [fresh] builds a
    process image (one is consumed for calibration, one is migrated);
    [scfg] supplies nodes, binaries, and the link (its transport is
    replaced per attempt). Raises [Invalid_argument] on a bad [cfg] or
    a calibration failure. *)
val run :
  cfg ->
  Dapper.Session.config ->
  fresh:(unit -> Dapper_machine.Process.t) ->
  seed:int64 ->
  run

type summary = {
  y_control : bool;
  y_seeds : int;
  y_committed : int;
  y_degraded : int;
  y_rolled_back : int;
  y_postponed : int;
  y_attempts : int;
  y_sheds : int;
  y_trips : int;
  y_cancels : int;
  y_blackout_ms : float;
  y_requests : int;
  y_ok : int;
  y_availability : float;
  y_all : Dapper_traffic.Sketch.t;
  y_during : Dapper_traffic.Sketch.t;
}

(** [sweep cfg scfg ~fresh ~seeds ~seed0] — seeds [seed0, seed0+1, ...]
    in order, plus their summary. *)
val sweep :
  cfg ->
  Dapper.Session.config ->
  fresh:(unit -> Dapper_machine.Process.t) ->
  seeds:int ->
  seed0:int64 ->
  run list * summary

(** p99 of the merged during-migration sketch (0 when empty). *)
val mig_p99 : summary -> float

val summary_line : summary -> string

(** The run's degradation trace, one formatted line per event. *)
val event_lines : run -> string list
