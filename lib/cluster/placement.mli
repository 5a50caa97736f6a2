(** Pluggable destination policies for eviction scheduling.

    A policy decides which slow-tier node class hosts an evicted job
    ({!choose_dest}). The datacenter-scale {!Fleet_xl}, whose slow tier
    is heterogeneous, places every eviction through it, and
    [Dapper_health.Sustained] places its migrations across racks with
    [Latency_aware]. (The process-level {!Fleet} has one destination
    class and always evicts the most recently started job.)

    Every choice is deterministic: candidates are presented in slot /
    class order and every rule breaks ties on the earliest candidate,
    so two runs of the same configuration place identically. *)

type t =
  | Latest_start
      (** first-free destination — the seed behaviour, named after the
          seed fleet's latest-start eviction *)
  | First_fit
      (** pack destinations onto the lowest-numbered free slot
          (bin-packing) *)
  | Energy_aware
      (** destination with the lowest active watts per unit of speed *)
  | Slo_aware
      (** cheapest destination whose estimated completion meets the
          job's deadline, else the fastest *)
  | Latency_aware
      (** destination whose rack's page servers are the least backed up
          ([page_wait_ms] hook), so requests faulting against the
          migrating job stall least — the policy the live-traffic plane
          feeds (ties on [dc_est_ms]) *)

val name : t -> string

(** Inverse of {!name}; [None] for unknown names. *)
val of_string : string -> t option

val all : t list

(** A destination candidate: a slow-tier node class with at least one
    free slot. [dc_lowest_slot] is the smallest free slot id in the
    class (global bin-packing order); [dc_est_ms] the estimated
    wait + migration + execution time of the job being placed there. *)
type dest = {
  dc_index : int;
  dc_lowest_slot : int;
  dc_ops_per_ns : float;
  dc_core_w : float;
  dc_est_ms : float;
}

(** Active watts divided by speed: joules charged per unit of work —
    the quantity energy-aware placement minimizes. *)
val watts_per_speed : dest -> float

(** The chosen destination, or [None] when there are no candidates.
    [deadline_ms] only affects [Slo_aware]: prefer the cheapest
    candidate with [dc_est_ms <= deadline_ms], falling back to the
    fastest when none meets it. [page_wait_ms] only affects
    [Latency_aware]: the estimated page-server queue wait at the
    candidate's rack (e.g. {!Rack.wait_ms}) — the stall a request
    faulting mid-migration would be charged; when absent,
    [Latency_aware] falls back to minimizing [dc_est_ms]. *)
val choose_dest :
  t -> ?deadline_ms:float -> ?page_wait_ms:(dest -> float) -> dest list ->
  dest option
