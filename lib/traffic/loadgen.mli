(** Open-loop load plane: millions of simulated requests across a live
    migration, each charged the real stall.

    The generator plays a seeded arrival process ({!Arrival}) against a
    [lg_lanes]-lane FCFS server on the simulated clock while one real
    migration — driven through the actual {!Session} pipeline on the
    actual process image — runs at [lg_migrate_at_ms]. Requests are
    charged what the mechanism actually costs them:

    - requests whose service would start inside the blackout (the
      session's pause→resume window, from its stage log) wait for the
      resume — open-loop arrivals keep landing meanwhile, so the
      backlog drains through the lanes and the tail stretches exactly
      as queueing theory says it must;
    - under pre-copy ([Precopy]/[Hybrid]) the source serves through
      the rounds (at a small dirty-tracking overhead), and the blackout
      shrinks to what {!Session.precopy} left residual;
    - under post-copy ([Postcopy]/[Hybrid]) requests landing after the
      resume fault against the not-yet-fetched page set (the session's
      real [sf_lazy_pages]), each fault charged a
      {!Transport.fetch_stall_ns} sample — round trips, injected
      delays, retry backoff — plus the page-server queue wait from the
      rack pool ({!Rack.acquire_wait}).

    Per-request latencies stream into two {!Sketch}es (all requests,
    and requests charged a migration stall) and into an order-sensitive
    FNV-1a fingerprint, so same-seed runs are byte-identical — the
    golden-fingerprint tests pin exactly this. *)

open Dapper_util
open Dapper_machine
open Dapper_net
module Session = Dapper.Session

type cfg = {
  lg_seed : int64;
  lg_requests : int;        (** total arrivals to simulate *)
  lg_clients : int;         (** client population behind the rate *)
  lg_client_rps : float;    (** per-client requests per second *)
  lg_mmpp : (float * float) array option;
  (** MMPP states as [(rate multiplier, mean hold ms)] over the base
      rate; [None] = plain Poisson *)
  lg_lanes : int;           (** parallel FCFS service lanes *)
  lg_service_src_ms : float;  (** mean request service on the source *)
  lg_service_dst_ms : float;  (** mean request service on the destination *)
  lg_migrate_at_ms : float; (** when the migration begins *)
  lg_max_rounds : int;      (** pre-copy round cap ([Precopy]/[Hybrid]) *)
  lg_downtime_budget_ms : float;  (** pre-copy stop condition *)
  lg_round_instrs : int;
  (** source instructions interpreted per pre-copy round — the dirty-set
      generator (a fixed budget, so wall clock stays bounded while the
      modeled round time rides the wire model) *)
  lg_racks : Rack.t option; (** page-server pool charged on faults *)
  lg_rack : int;            (** the migrating job's rack *)
}

(** Aggregate arrival rate: [clients * rps / 1000] per ms. *)
val rate_per_ms : cfg -> float

(** Mean request service time for a per-request instruction cost on a
    node: [instrs / (ops_per_ns * 1e6)] ms — how the bench calibrates
    [lg_service_*_ms] from real workload runs. *)
val service_ms : node:Node.t -> instrs_per_req:float -> float

(** Request mix over the Redis-style op classes: [class_mult u] maps a
    uniform [u] to GET/SET/INCR (60/30/10%) cost multipliers 0.8, 1.2 and
    1.6, whose mean is exactly 1. *)
val class_mult : float -> float

(** Service-time multiplier on the source while pre-copy dirty tracking
    runs (1.03: a 3% write-barrier overhead). *)
val track_overhead : float

type stats = {
  ls_mechanism : Budget.mechanism;
  ls_requests : int;
  ls_stalled : int;
  (** requests that arrived inside the migration window (pre-copy start
      through resume) or were charged a post-copy fault *)
  ls_faulted : int;       (** of those, post-copy page faults *)
  ls_precopy_ms : float;  (** pre-copy round time (source kept serving) *)
  ls_blackout_ms : float; (** pause → resume service gap *)
  ls_lazy_left : int;     (** post-copy pages owed at resume *)
  ls_precopy : Session.precopy_stats option;
  ls_all : Sketch.t;      (** every request latency *)
  ls_during : Sketch.t;   (** latencies of the stalled requests *)
  ls_fingerprint : int64; (** FNV-1a over latency bits, arrival order *)
  ls_outcome : Session.outcome;
}

(** [run cfg scfg p mech] migrates [p] with [mech] under load. The
    session config's transport kind is adapted to the mechanism
    (scp for [Vanilla]/[Precopy], page-server for [Postcopy]/[Hybrid]);
    pass a transport of the right kind to keep a [retrying] wrapper.
    Session-stage failures surface unchanged (the source is rolled
    back by the session machinery). *)
val run :
  cfg ->
  Session.config ->
  Process.t ->
  Budget.mechanism ->
  (stats, Dapper_error.t) result

(** [fingerprint_line stats] renders the golden-test line: mechanism,
    request/stall/fault counts, blackout, the six quantiles at
    [%.6f], and the latency-stream fingerprint in hex. *)
val fingerprint_line : stats -> string
