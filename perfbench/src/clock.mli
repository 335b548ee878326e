(** The one monotonic clock every timing in the benchmark is taken on. *)

val now_ns : unit -> int
(** [CLOCK_MONOTONIC] in nanoseconds; comparable across domains and
    allocation-free. *)

val sleep_until : int -> unit
(** Sleep until the given {!now_ns} instant (returns at once if it has
    passed).  Releases the domain lock while asleep. *)

val minor_words : unit -> int
(** Words allocated on this domain's minor heap so far (allocation-free
    read of [Gc.minor_words]). *)

val pin_nth_cpu : int -> bool
(** Pin the calling thread to [cpus.(n)]; [false] (and nothing
    changed) when there is no such CPU. *)

val timer_slack : int -> bool
(** Set the calling thread's timer slack in nanoseconds: how late the
    kernel may end its timed sleeps. *)
