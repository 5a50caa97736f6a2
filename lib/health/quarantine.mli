(** Fleet health scoring: per-key failure EWMAs and quarantine.

    Keys are whatever failure domain the caller scores: destination
    racks in {!Sustained}'s control loop, the one caller. Every
    outcome report folds into the key's failure EWMA
    ([alpha * fail + (1 - alpha) * ewma], fail = 0/1); once a key has
    at least [q_min_reports] reports and its EWMA reaches
    [q_threshold], it is quarantined: {!admits} turns false, so the
    caller stops placing work there. Because a quarantined
    key takes no work, release is time-based: after [q_heal_ms] of
    quiet it is re-admitted on half trust (EWMA reset to half the
    threshold), ready to re-trip quickly if still bad.

    Deterministic: no randomness at all — the quarantine history is a
    pure function of the report sequence. A key that never reports a
    failure keeps EWMA 0 and is never quarantined. *)

type cfg = {
  q_alpha : float;       (** EWMA weight of the newest report, (0, 1] *)
  q_threshold : float;   (** failure EWMA that quarantines, (0, 1] *)
  q_min_reports : int;   (** reports before the EWMA is trusted *)
  q_heal_ms : float;     (** quiet time before auto-release *)
}

(** alpha 0.3, threshold 0.5, 3 reports, 5 s heal window. *)
val default_cfg : cfg

type t

(** Raises [Invalid_argument] on out-of-range parameters. *)
val create : ?cfg:cfg -> unit -> t

(** Fold one outcome for [key] at [now_ms] into its score. *)
val report : t -> key:int -> now_ms:float -> ok:bool -> unit

(** May work be sent to [key] at [now_ms]? Performs the time-based
    release check first, so a healed key admits again. *)
val admits : t -> key:int -> now_ms:float -> bool

(** Keys currently quarantined at [now_ms], sorted. *)
val quarantined : t -> now_ms:float -> int list

(** Current failure EWMA for [key] (0 for an unknown key). *)
val failure_ewma : t -> key:int -> float

(** Quarantine entries since creation (releases not subtracted). *)
val entered : t -> int
