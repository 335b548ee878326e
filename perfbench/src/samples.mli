(** Preallocated latency samples and the benchmark's percentile rule.

    A buffer never allocates after {!create}: once full it decimates
    itself (keeps every other sample, doubles its stride), so the kept
    samples stay a uniform subsample of the whole run however long it
    is. *)

type t

val create : int -> t
(** [create cap] keeps at most [cap] samples. *)

val add : t -> int -> unit
val seen : t -> int
(** Samples offered so far. *)

val to_array : t -> int array
(** A copy of the kept samples. *)

(** {1 Percentile rule}

    Percentiles are given in basis points ([9900] = p99) and use the
    nearest-rank definition.  A tail percentile is reported only when
    at least ten kept samples lie beyond it. *)

val rank : n:int -> int -> int
(** 1-based nearest rank of a percentile among [n] sorted samples. *)

val beyond : n:int -> int -> int
(** Samples strictly above that rank. *)

val tail_bp : ?target:int -> int -> int option
(** The highest percentile of the ladder p99.99, p99.9, p99, p95, p90,
    p75, p50 that is at most [target] (default p99) and leaves at least
    ten of [n] samples beyond it; [None] below 20 samples. *)

type summary = {
  n : int;  (** kept samples the figures come from *)
  p50 : int;
  tail : int;  (** value at [tail_bp]; the maximum when no rung qualifies *)
  tail_bp : int;
}

val summarize : ?target:int -> t -> summary option
(** [None] when no sample was kept. *)
