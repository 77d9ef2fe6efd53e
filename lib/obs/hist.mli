(** Log-bucketed HDR-style histogram over non-negative integers
    (cycle counts, latencies, byte sizes).

    Values below {!linear_limit} land in exact unit-width buckets;
    above it each power-of-two range is split into {!subbuckets}
    equal sub-buckets, so the relative quantile error is bounded by
    [1/subbuckets] (3.125 %).  {!record} is O(1) and allocation-free
    once the backing array has grown to cover the largest value seen;
    memory is O(buckets) — about 2 k cells for the full 62-bit range —
    never O(samples), so a week-long run costs the same as a
    millisecond one.

    {!merge} is associative and commutative and {e lossless}: merging
    the histograms of two sample streams yields bucket-for-bucket the
    histogram of their concatenation (the property the fleet
    scheduler and the campaign's parallel domains rely on).  Count,
    sum, min and max are tracked exactly; only quantiles are subject
    to bucketing error. *)

type t

val subbuckets : int
(** Sub-buckets per power-of-two range (32). *)

val linear_limit : int
(** Values in [\[0, linear_limit)] are counted exactly (64). *)

val create : unit -> t

val record : t -> int -> unit
(** Count one sample.  Negative values clamp to 0. *)

val record_n : t -> int -> n:int -> unit
(** Count [n] occurrences of one value ([n <= 0] is a no-op). *)

val is_empty : t -> bool
val count : t -> int
val sum : t -> int
(** Exact sum of recorded values. *)

val min_value : t -> int
(** Exact smallest recorded value; 0 when empty. *)

val max_value : t -> int
(** Exact largest recorded value; 0 when empty. *)

val mean : t -> float
(** [sum/count]; 0 when empty. *)

val quantile : t -> float -> int
(** [quantile t q] for [q] in [\[0, 1\]]: a value [v] such that at
    least [ceil (q * count)] samples are [<= hi] of [v]'s bucket.
    Returns the bucket midpoint clamped into [\[min, max\]], so
    [quantile t 0.0 = min_value t] and [quantile t 1.0 = max_value t].
    Relative error vs. the exact order statistic is bounded by
    [1/subbuckets].  0 when empty. *)

val merge : t -> t -> t
(** Pure bucket-wise sum; neither argument is mutated.  Associative,
    commutative, and [merge (of_samples xs) (of_samples ys)] equals
    [of_samples (xs @ ys)] exactly. *)

val add_into : t -> t -> unit
(** [add_into dst src] adds [src]'s samples to [dst] in place, leaving
    [dst] equal to [merge dst src]; [src] is not mutated.  Allocates
    only when [dst]'s buckets must grow to cover [src]'s. *)

val equal : t -> t -> bool
(** Structural equality of the bucket contents and exact stats. *)

val summary_json : t -> Json.t
(** Compact [{count; sum; min; max; mean; p50; p90; p99}] object. *)

val pp : Format.formatter -> t -> unit
(** One-line [count/mean/p50/p99/max] summary. *)
