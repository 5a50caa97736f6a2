(** The differential migration oracle.

    Runs one compiled program as two execution twins, one per ISA, and
    checks Dapper's central claim — that a process migrated at {e any}
    equivalence point is observably identical afterwards — in three
    phases:

    + {b native differential}: both twins run to completion and must
      produce the same exit code and stdout;
    + {b lockstep walk}: both twins are repeatedly paused; at every
      dynamic equivalence point their read-only
      {!Dapper_machine.Process.observe} snapshots must be state-equal
      with identical output so far, and their dumped images must unwind
      to pointwise-equal stacks (same functions, equivalence points and
      live-value bytes per cross-ISA key; pointer-typed values are
      exempt from the byte comparison because frame geometry legally
      differs across ISAs until the rewriter translates them);
    + {b migration sweep}: for every dynamic point [k], a fresh source
      process is advanced to point [k] and force-migrated through the
      full {!Dapper.Session} pipeline. The restored twin's snapshot
      must be state-equal to the paused source, every later equivalence
      point it passes must be state-equal to the source twin's recorded
      snapshot at that point, and its final exit code and combined
      stdout must equal the native run's.

    Programs under the oracle must be deterministic and single-threaded,
    must not read the instruction-count clock (a pause perturbs it) and
    must not store stack addresses into globals or the heap (frame
    geometry differs across ISAs before translation). The generated
    ({!Gen}) and example ({!Corpus}) corpora respect this by
    construction.

    The sweep replays from a fresh load for each point, so its cost is
    quadratic in the number of dynamic points; [max_points] caps the
    walked prefix for large corpora (the qcheck properties use a small
    cap, the example sweep runs uncapped). *)

open Dapper_isa
module Link = Dapper_codegen.Link

type report = {
  rp_app : string;
  rp_src : Arch.t;
  rp_dst : Arch.t;
  rp_points : int;       (** dynamic equivalence points walked *)
  rp_complete : bool;    (** false when [max_points] capped the walk *)
  rp_migrations : int;   (** forced migrations performed (one per point) *)
  rp_snapshots : int;    (** pointwise snapshot equivalence checks *)
  rp_values : int;       (** live-value byte comparisons across ISAs *)
}

type failure = {
  fl_app : string;
  fl_src : Arch.t;
  fl_dst : Arch.t;
  fl_point : int;  (** dynamic point index; -1 for native-run failures *)
  fl_what : string;
}

val report_to_string : report -> string
val failure_to_string : failure -> string

(** [run ~src ~dst c] drives all three phases, migrating [src]→[dst].
    Defaults: [fuel] 50M instructions, [budget] 50M drain instructions,
    [max_points] unlimited. *)
val run :
  ?fuel:int ->
  ?budget:int ->
  ?max_points:int ->
  src:Arch.t ->
  dst:Arch.t ->
  Link.compiled ->
  (report, failure) result

(** [advance_to_point p ~budget k] drives a freshly loaded process to
    its [k]-th dynamic equivalence point (0-based) and leaves it paused
    there; [false] if the process exits first. Exposed for tests that
    drive the pipeline by hand at a chosen point. *)
val advance_to_point : Dapper_machine.Process.t -> budget:int -> int -> bool

(** {1 Fast-path byte equivalence}

    The recode fast paths — pipelined transfer, the multi-worker cost
    model, and both combined — must produce byte-identical wire
    images and equivalent restored processes. [check_fastpaths] parks a
    fresh source at up to [points] equivalence points and, at each,
    runs the sequential pipeline followed by every fast-path variant,
    comparing the transferred image files byte-for-byte and requiring
    the pipelined transfer cost never to exceed the sequential one. *)

type fastpath_report = {
  fp_app : string;
  fp_points : int;            (** equivalence points exercised *)
  fp_saved_transfer_ms : float; (** sequential minus pipelined transfer *)
}

val fastpath_report_to_string : fastpath_report -> string

val check_fastpaths :
  ?budget:int ->
  ?points:int ->
  src:Arch.t ->
  dst:Arch.t ->
  Link.compiled ->
  (fastpath_report, failure) result

(** {1 Shadow replay}

    Divergence-localizing verification built on the record/replay plane
    ({!Dapper_replay}): record one complete source-ISA run, then at each
    of the first [max_points] equivalence points run a clean migration
    and require the committed destination to {e shadow-replay} the
    recording to a match ({!Dapper_replay.Shadow.check}). With [corrupt]
    (the default), each point additionally gets a deliberately damaged
    migration — one observable page of the rewritten image is flipped
    before an out-of-session restore — and the shadow must report its
    first divergence at exactly that anchor, naming the corrupted page,
    rather than a terminal pass/fail. *)

type shadow_report = {
  sr_app : string;
  sr_src : Arch.t;
  sr_dst : Arch.t;
  sr_points : int;     (** migration points exercised *)
  sr_clean : int;      (** clean migrations whose shadow matched *)
  sr_corrupted : int;  (** corrupted restores localized correctly *)
  sr_divergences : string list;
      (** one {!Dapper_replay.Shadow.report_to_string} per corrupted run *)
}

val shadow_report_to_string : shadow_report -> string

val check_shadow :
  ?budget:int ->
  ?max_points:int ->
  ?corrupt:bool ->
  src:Arch.t ->
  dst:Arch.t ->
  Link.compiled ->
  (shadow_report, failure) result
