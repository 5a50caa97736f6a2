(** Downtime-budget mechanism selection.

    Four ways to move a process, ordered by what they cost beyond the
    blackout itself:

    - [Vanilla] — stop-and-copy: pause, move everything, resume. No
      extra wire traffic, no fault tail; the whole image is downtime.
    - [Precopy] — iterative pre-copy: stream memory while serving, stop
      and move only the final dirty residual. Extra wire traffic
      (re-sent dirty pages), no fault tail.
    - [Hybrid] — pre-copy rounds, then a lazy (post-copy) switch: the
      blackout carries only the minimal image, and only the pre-copy
      residual faults in afterwards. Extra wire traffic and a short
      fault tail.
    - [Postcopy] — pure lazy migration: minimal blackout, every data
      page faults in on demand. No extra wire traffic, longest tail.

    {!choose} picks, per job, the first mechanism in that order whose
    projected downtime fits the budget — preferring mechanisms with the
    least collateral (wire overhead, then tail length) among those that
    fit, and falling back to the minimum-downtime mechanism when even
    [Postcopy] misses the budget. *)

type mechanism = Vanilla | Precopy | Hybrid | Postcopy

val mechanism_name : mechanism -> string

(** Inverse of {!mechanism_name}; [None] for unknown names. *)
val mechanism_of_string : string -> mechanism option

val all_mechanisms : mechanism list

(** [Hybrid] and [Postcopy] restore lazily: they need a page-server
    transport and leave a post-copy fault tail. *)
val needs_lazy : mechanism -> bool

(** [Precopy] and [Hybrid] run pre-copy rounds before the pause. *)
val precopies : mechanism -> bool

(** Per-job cost projection, in the session cost model's terms. *)
type estimate = {
  e_image_bytes : int;       (** eager (stop-and-copy) wire bytes *)
  e_residual_bytes : int;    (** projected pre-copy residual wire bytes *)
  e_fixed_ms : float;        (** pause + dump + recode + eager restore *)
  e_lazy_fixed_ms : float;   (** pause + dump + recode + minimal transfer
                                 + lazy restore *)
  e_wire_ns_per_byte : float;
}

(** Projected blackout (service gap) for running [mechanism] under
    [estimate]. Post-copy fault tails are degradation, not downtime, so
    [Hybrid] and [Postcopy] project the same blackout — they differ in
    tail length, which the preference order accounts for. *)
val downtime_ms : estimate -> mechanism -> float

(** The first mechanism in [Vanilla; Precopy; Hybrid; Postcopy] order
    whose {!downtime_ms} is within [budget_ms]; when none fits, the one
    with the smallest projected downtime (earliest in order on ties).
    Raises [Invalid_argument] on a negative budget. *)
val choose : budget_ms:float -> estimate -> mechanism

(** Like {!choose}, also reporting whether the pick actually fits the
    budget ([false] means the least-bad fallback was taken — the
    degradation ladder's cue to postpone instead of blowing the SLO). *)
val choose_detail : budget_ms:float -> estimate -> mechanism * bool
