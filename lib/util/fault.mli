(** The chaos plane: deterministic, seeded fault injection.

    A fault schedule is a seeded stream of injection decisions consulted
    by the pipeline at well-defined {!site}s — each page transfer, each
    eager image chunk, the source's reachability during post-copy
    paging, the destination's restore, a fleet node mid-eviction. Every
    decision is drawn from a splitmix64 stream derived from the seed, so
    a chaos run is replayable bit for bit: the same seed against the
    same pipeline produces the same faults in the same places.

    The plane only decides; the components it is threaded through
    ({!Transport}-level transmission, the {!Session} two-phase commit,
    the fleet scheduler) implement the injected failure and the recovery
    that must survive it. A schedule also keeps a {!log} of everything
    it injected, so harnesses can report fault counts per run. *)

(** Where a fault can strike. *)
type site =
  | Transfer_chunk  (** one named image file of an eager transfer in flight *)
  | Page_fetch      (** one demand-paged (post-copy) page in flight *)
  | Source_node     (** source page-server reachability during paging *)
  | Dest_restore    (** destination materialization / pre-ack failure *)
  | Dest_node       (** a fleet destination node, mid-eviction *)

(** What strikes. [Corrupt salt] carries seed material the consumer uses
    to pick the byte to flip ({!corrupt_byte}); [Delay ns] charges extra
    simulated-clock latency; [Crash] is a node-level loss. *)
type action =
  | Drop
  | Corrupt of int64
  | Delay of float
  | Crash

(** Per-site-class fault probabilities. Payload sites (transfer chunks,
    page fetches) draw one of drop/corrupt/delay; node sites draw crash
    or nothing. *)
type spec = {
  fs_drop : float;
  fs_corrupt : float;
  fs_delay : float;
  fs_delay_ns : float;       (** latency added by each injected delay *)
  fs_crash_source : float;
  fs_fail_restore : float;
  fs_kill_node : float;
}

(** No faults ever fire. *)
val calm : spec

(** [uniform p] sets every payload-fault class to probability [p] and
    node crashes to [p/3] ([delay_ns] defaults to 5 ms). Raises
    [Invalid_argument] outside [0, 1]. *)
val uniform : ?delay_ns:float -> float -> spec

(** A seeded schedule. Mutable: every {!draw} advances its stream. *)
type t

val make : seed:int -> spec -> t
val seed : t -> int
val spec : t -> spec

(** Consult the schedule at a site. [None] means no fault this time;
    every consultation advances the stream exactly one step per site. *)
val draw : t -> site -> action option

(** Faults injected so far / in injection order. *)
val injected : t -> int
val log : t -> (site * action) list

(** [corrupt_byte salt data] flips one byte of [data] in place at a
    position derived from [salt] (no-op on empty payloads). *)
val corrupt_byte : int64 -> bytes -> unit
