(** Operation-latency audit over recorded histories.

    An operation's recorded duration is its {e response time} on the
    history's clock (simulated steps, or nanoseconds for real runs) —
    own work plus time spent descheduled.  Under a fair scheduler
    with [n] fibers a wait-free operation's response time is bounded
    by (own steps) × n plus injected pauses, so it separates cleanly
    from blocking algorithms, whose readers inherit the writer's
    delays unboundedly (the Fig. 2/3 mechanism).  Tests assert such
    bounds; experiments report the tails. *)

type t = {
  reads : Arc_util.Stats.summary option;
  writes : Arc_util.Stats.summary option;
}

val of_history : History.t -> t
(** Durations per class, summarized with tail target p99.9 (the
    soak-triage tail: one stuck retry in 10^3 reads shows there long
    before it moves p99); [None] for a class with no events. *)

val bounded : History.t -> kind:History.kind -> bound:int -> (unit, History.event) result
(** [Ok] if every operation of [kind] lasted at most [bound] clock
    units; otherwise the worst offender. *)
