(** Jittered exponential backoff for the admission gate's waiting room
    ({!Admission.Make.admit_wait}).

    Deterministic given its seed (SplitMix-driven jitter), so waiting
    schedules replay exactly in the simulator and failing soak seeds
    stay reproducible.  Delays follow the "full jitter" scheme: the
    [n]-th delay is drawn uniformly from [[1, min (4·2ⁿ⁻¹) 1024]] clock
    units, which decorrelates competing waiters while keeping the
    expected delay exponential. *)

type t

val create : seed:int -> unit -> t

val next : t -> int
(** Draw the next delay (in the caller's clock units — simulated steps
    or microseconds) and advance the attempt counter. *)
