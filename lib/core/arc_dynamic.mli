(** ARC with dynamic per-write buffer sizing — the §3.3 implementation
    note made concrete: "in any real implementation of our register
    algorithm, dynamic buffer allocation/release, with each buffer
    made up by the amount of bytes fitting the size of the register
    value to be stored upon write operations could be employed."

    This is {!Arc.Core} instantiated with {!Arc.Elastic} slot storage:
    the synchronization, hint, R2', recovery and telemetry code is
    {!Arc}'s own.  The only difference is buffer
    management: a write replaces the target slot's buffer with an
    exactly-sized fresh one when the new length exceeds the buffer or
    is under half of it (grow always, shrink with hysteresis).  This
    is safe precisely because the slot is free — no standing readers —
    when rewritten, and, an OCaml dividend, a reader still holding a
    view of the slot's {e previous} buffer keeps that buffer alive
    through the GC: the explicit reclamation a C implementation would
    need here comes for free.

    Worth its footprint when snapshot sizes vary wildly: N+2 buffers
    of the {e maximum} size become N+2 buffers near their actual
    sizes.  {!footprint_words} exposes the current total for the
    memory experiments.

    {b Crash-tolerant storage reclaim (ISSUE 2).}  A crashed (or
    indefinitely paused) reader pins its subscribed slot forever; the
    algorithm tolerates that — Lemma 4.1's free-slot guarantee only
    needs 2 spare slots — but in the dynamic variant the pinned slot
    may hold an arbitrarily large buffer.  {!reclaim_stale} lets the
    writer revoke the {e storage} (never the presence accounting) of
    slots superseded more than a lease of writes ago yet still
    pinned: the slot's [size] is marked [-1] and its buffer replaced
    by an empty one, making the old buffer reclaimable by the GC as
    soon as no live reader view references it.  Readers validate
    [size] on both sides of reading [content] when they subscribe, so
    a reader racing a revocation releases and re-subscribes instead
    of returning reclaimed storage; readers already holding a
    validated cached view are unaffected (their buffer stays
    GC-alive).  The recovery retry is the one documented departure
    from strict per-operation wait-freedom, and it can only trigger
    when a reader rests between subscription and validation for an
    entire lease of writes.  (Fixed storage runs the same validation
    but never revokes, so there it never retries.) *)

val algorithm : string

(** {!Arc.Core} with elastic storage.  Beyond {!Arc.BASE} it exposes
    buffer accounting and stale-storage reclaim; the transition trace
    additionally records reallocations and reclaims, and [metrics] is
    {!Arc}'s set plus [arc_reallocations_total],
    [arc_reclaimed_slots_total] and [arc_footprint_words].  The hint
    is always on (no [create_with]). *)
module Make (M : Arc_mem.Mem_intf.S) : Arc.ELASTIC with module Mem = M
