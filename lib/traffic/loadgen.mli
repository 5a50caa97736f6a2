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
      real lazy-page debt, [r_lazy_debt]), each fault charged a
      {!Transport.fetch_stall_ns} sample — round trips, injected
      delays, retry backoff — plus the page-server queue wait from the
      rack pool ({!Rack.acquire_wait}).

    Per-request latencies stream into two {!Sketch}es (all requests,
    and requests charged a migration stall) and into an order-sensitive
    FNV-1a fingerprint, so same-seed runs are byte-identical — the
    golden-fingerprint tests pin exactly this.

    The request loop itself is {!play}, the only one in the tree:
    {!run} hands it the one blackout of one migration, and
    {!Dapper_health.Sustained} hands it the blackout windows of every
    attempt its control loop made. *)

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

type stats = {
  ls_mechanism : Budget.mechanism;
  ls_requests : int;
  ls_stalled : int;
  (** requests that arrived inside the migration window (pre-copy start
      through resume) or were charged a post-copy fault *)
  ls_faulted : int;       (** of those, post-copy page faults *)
  ls_precopy_ms : float;  (** pre-copy round time (source kept serving) *)
  ls_blackout_ms : float; (** pause → resume service gap *)
  ls_lazy_left : int;
      (** post-copy pages owed at resume: the restore's debt minus what a
          commit drain ([cfg_commit_drain]) already pulled *)
  ls_precopy : Session.precopy_stats option;
  ls_all : Sketch.t;      (** every request latency *)
  ls_during : Sketch.t;   (** latencies of the stalled requests *)
  ls_fingerprint : int64; (** FNV-1a over latency bits, arrival order *)
  ls_outcome : Session.outcome;
}

(** [run cfg scfg p mech] migrates [p] with [mech] under load: the
    pre-copy rounds when [mech] has them, then {!Session.run}, then
    {!play} over the single blackout the migration left. The session
    config's transport kind is adapted to the mechanism (scp for
    [Vanilla]/[Precopy], page-server for [Postcopy]/[Hybrid]); pass a
    transport of the right kind to keep a [retrying] wrapper.
    Session-stage failures surface unchanged (the source is rolled
    back by the session machinery). Raises [Invalid_argument] on a bad
    [cfg], including an [lg_rack] outside [lg_racks], before anything
    migrates. *)
val run :
  cfg ->
  Session.config ->
  Process.t ->
  Budget.mechanism ->
  (stats, Dapper_error.t) result

(** {1 The request loop} *)

(** A migration as the requests see it, on the simulated clock. *)
type timeline = {
  tl_start_ms : float;  (** the migration begins (pre-copy or pause) *)
  tl_blackouts : (float * float) list;
      (** [(start, stop)] service gaps, chronological and disjoint: a
          request whose service would start inside one waits for its
          stop *)
  tl_resume_ms : float;
      (** service moves to the destination; [infinity] when the job
          never lands (every attempt rolled back) *)
  tl_track_end_ms : float;
      (** source requests starting in [\[tl_start_ms, tl_track_end_ms)]
          pay the dirty-tracking overhead (3% on the service mean) *)
  tl_during_end_ms : float;
      (** requests arriving in [\[tl_start_ms, tl_during_end_ms)] count
          as during the migration *)
  tl_lazy_owed : int;  (** post-copy pages owed at the resume *)
  tl_dump_pages : int;
      (** the dump's page population: a destination request faults with
          probability [owed / max 1 tl_dump_pages] *)
  tl_stall_ms : float -> float;
      (** the stall one post-copy fault charges a request whose service
          starts at the given time (fetch plus page-server queue wait) *)
}

(** What the requests saw. *)
type plane = {
  pl_all : Sketch.t;       (** every request latency *)
  pl_during : Sketch.t;
      (** latencies of the requests during the migration or charged a
          post-copy fault *)
  pl_faulted : int;        (** requests charged a post-copy fault *)
  pl_ok : int;             (** requests within [slo_ms] *)
  pl_fingerprint : int64;  (** FNV-1a over latency bits, arrival order *)
}

(** [play ~requests ~lanes ~service_src_ms ~service_dst_ms ~slo_ms ~rng
    ~arrivals tl] plays [requests] open-loop arrivals against a
    [lanes]-lane FCFS server across the timeline [tl]. It draws the
    arrival seed, then splits the service and fault streams, from [rng]
    in that order; [arrivals seed] builds the arrival process. Service
    is exponential around the source or destination mean, times the
    GET/SET/INCR class mix (60/30/10% at 0.8/1.2/1.6x, mean exactly 1).
    The per-request pass allocates nothing outside [tl_stall_ms]. *)
val play :
  requests:int ->
  lanes:int ->
  service_src_ms:float ->
  service_dst_ms:float ->
  slo_ms:float ->
  rng:Rng.t ->
  arrivals:(int64 -> Arrival.t) ->
  timeline ->
  plane

(** [fingerprint_line stats] renders the golden-test line: mechanism,
    request/stall/fault counts, blackout, the six quantiles at
    [%.6f], and the latency-stream fingerprint in hex. *)
val fingerprint_line : stats -> string
