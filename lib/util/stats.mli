(** Summary statistics and the repository's one percentile rule.

    The paper reports each sample as "the average over 10 runs"; we
    additionally keep dispersion and tails.  Every percentile in the
    library, the bench emitters and the soak gauges is a nearest-rank
    order statistic on integer basis points ([9900] = p99), and a tail
    is reported only when at least ten samples lie beyond it. *)

val rank : n:int -> int -> int
(** [rank ~n bp]: 1-based nearest rank [max 1 ⌈bp·n/10000⌉] of the
    [bp]-basis-point percentile among [n] sorted samples. *)

val supports : n:int -> int -> bool
(** Whether [n] samples can report percentile [bp]: the median and
    below and the maximum ([10000]) always (given a sample), a tail
    above the median only when at least ten samples lie beyond its
    rank. *)

val tail_bp : ?target:int -> int -> int option
(** The highest rung of p99.99, p99.9, p99, p95, p90, p75, p50 that is
    at most [target] (default p99) and that [n] samples support;
    [None] below 20 samples. *)

val percentile : float array -> int -> float
(** [percentile xs bp]: the sample at {!rank}[ ~n bp] of a sorted
    copy (the input is not mutated).
    @raise Invalid_argument on empty input or [bp] outside
    [0, 10000]. *)

type summary = {
  n : int;
  mean : float;
  stddev : float;  (** sample standard deviation (n-1 denominator) *)
  min : float;
  max : float;
  p50 : float;
  tail : float;  (** value at [tail_bp]; the maximum when no rung qualifies *)
  tail_bp : int;  (** {!tail_bp}[ ?target n], or [10000] *)
}

val summarize : ?target:int -> float array -> summary
(** @raise Invalid_argument on an empty array. *)

val mean : float array -> float
val stddev : float array -> float
