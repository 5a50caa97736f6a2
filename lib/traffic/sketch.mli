(** Streaming quantile sketch for request latencies.

    A DDSketch-style log-bucketed histogram: values land in buckets of
    exponentially growing width (ratio [gamma = (1 + e) / (1 - e)] for
    relative accuracy [e]), so any quantile is answered to within
    relative error [e] using O(log(max/min) / e) memory — millions of
    latencies, a few hundred buckets. Everything is deterministic:
    additions commute, {!merge} is exact bucket-wise addition (and hence
    associative and commutative to the bit), and {!quantile} is
    nearest-rank over cumulative bucket counts, so same-seed runs
    produce byte-identical CDFs.

    The accuracy contract (property-tested against an exact
    [List.sort] oracle, including sorted, constant and heavy-tailed
    adversaries): for any [q], [quantile t q] is within relative error
    [e] of the exact nearest-rank q-quantile of the values added. *)

type t

(** [create ~rel_err ()] accepts non-negative values. [rel_err]
    (default 0.01, i.e. 1%) must be in (0, 1). Values below [1e-9] are
    folded into an exact zero bucket. Buckets are a dense array over the
    range of keys seen, so memory is [O(log(max/min) / rel_err)] words:
    at most ~75k at 1%, a few hundred for a typical latency stream. *)
val create : ?rel_err:float -> unit -> t

val rel_err : t -> float

(** Raises [Invalid_argument] on negative or non-finite values. *)
val add : t -> float -> unit

val count : t -> int

(** [quantile t q] for [q] in [0, 1]: the bucket midpoint estimate of
    the nearest-rank q-quantile (rank [max 1 (ceil (q * count))]),
    clamped into the exact extremes of the values added. Raises [Invalid_argument] if
    [q] is outside [0, 1] {e or if the sketch is empty} — an empty
    window has no quantiles, and the old silent [nan] leaked into
    fingerprint lines as [p50=nan]. Callers that can legitimately see
    an empty window use {!quantile_opt}. *)
val quantile : t -> float -> float

(** [None] while empty, otherwise [Some (quantile t q)]. Still raises
    [Invalid_argument] if [q] is outside [0, 1]. *)
val quantile_opt : t -> float -> float option

(** Fresh sketch holding both inputs' values. Exact bucket-wise
    addition — associative, commutative, and equal (as {!buckets}) to
    adding the values one by one. Raises [Invalid_argument] when the
    operands' [rel_err] differ. *)
val merge : t -> t -> t

(** [(bucket_index, count)] pairs in increasing index order, zero bucket
    excluded (see {!zero_count}) — the canonical representation used by
    the merge-associativity tests. *)
val buckets : t -> (int * int) list

val zero_count : t -> int
