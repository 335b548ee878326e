(** Power-of-two bucketed histogram for latency-style measurements:
    O(1) recording with no allocation on the hot path, wide dynamic
    range (1ns..seconds in 63 buckets), and percentile queries with
    bounded relative error — sufficient for the latency-tail
    comparisons (wait-free vs blocking) the experiments report. *)

type t

val create : unit -> t

val record : t -> int -> unit
(** Record a non-negative sample; negative samples count into
    bucket 0. *)

val count : t -> int
val max_value : t -> int
(** Largest recorded sample (exact). *)

val percentile : t -> int -> int
(** [percentile t bp]: estimate of the [bp]-basis-point percentile
    ([9900] = p99), linearly interpolated within the power-of-two
    bucket holding the sample at {!Stats.rank} (clamped to
    {!max_value}, so the top percentile of a single-maximum
    distribution is exact).  The estimate always lies in the same
    bucket as that order statistic, so its error is below a factor of
    two.
    @raise Invalid_argument on an empty histogram or [bp] outside
    [0, 10000]. *)

val percentile_opt : t -> int -> int option
(** [Some (percentile t bp)] when {!Stats.supports} the count, [None]
    otherwise (an empty histogram included): the tail-refusing form
    every report and gauge uses. *)

val merge_into : src:t -> dst:t -> unit
(** Add all of [src]'s counts into [dst] (per-thread histograms merged
    after a run). *)

val buckets : t -> (int * int * int) list
(** Non-empty buckets as [(lo, hi, count)], ascending. *)

val pp : Format.formatter -> t -> unit
