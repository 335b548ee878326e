(** Summary statistics for experiment samples.

    The paper reports each sample as "the average over 10 runs"; we
    additionally keep dispersion so EXPERIMENTS.md can state how noisy
    the shared-container measurements are. *)

type summary = {
  n : int;
  mean : float;
  stddev : float;  (** sample standard deviation (n-1 denominator) *)
  min : float;
  max : float;
  median : float;
  p95 : float;
  p999 : float;  (** 99.9th percentile — the soak/bench tail column *)
  ci95 : float;  (** half-width of a normal-approximation 95% CI on the mean *)
}

val summarize : float array -> summary
(** @raise Invalid_argument on an empty array. *)

val mean : float array -> float
val stddev : float array -> float
val percentile : float array -> float -> float
(** [percentile xs p] for [p] in [0, 100], linear interpolation;
    does not mutate the input.
    @raise Invalid_argument on empty input or [p] outside [0, 100]. *)

val pp_summary : Format.formatter -> summary -> unit

(** Online mean/variance accumulator (Welford), usable when samples
    are too many to buffer. *)
module Online : sig
  type t

  val create : unit -> t
  val add : t -> float -> unit
  val count : t -> int
  val mean : t -> float
  val stddev : t -> float
end
