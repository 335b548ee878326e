(** Anonymous Readers Counting — the paper's contribution (§3).

    A wait-free multi-word atomic (1,N) register using N+2 slots and a
    single packed synchronization word
    [current = ⟨index, count⟩] (see {!Arc_util.Packed}):

    - {b read} (Algorithm 2): load [current] (R1); if the slot index
      equals the reader's private [last_index], return the already
      subscribed slot with {e no RMW at all} (R2) — the fast path that
      differentiates ARC from RF.  Otherwise release the old slot with
      an atomic increment of its [r_end] (R3), subscribe to the
      current slot with [AtomicAddAndFetch (current, 1)] (R4), and
      remember it (R5).
    - {b write} (Algorithm 3): find a free slot — one that is not
      [last_slot] and has [r_start = r_end] (W1) — copy the new value
      into it, reset its counters, publish it with
      [AtomicExchange (current, ⟨slot, 0⟩)] (W2), and freeze the old
      slot's readers-presence count into its [r_start] (W3).
    - {b free-slot hint} (§3.4): a reader that observes
      [r_start = r_end] right after its R3 release posts the slot
      index as a proposal; the writer validates and consumes it,
      making the free-slot search O(1) amortized instead of O(N).

    Reads are O(1); a read performs 0 RMW on the fast path and 2 RMW
    (R3 + R4) otherwise.  Writes perform exactly 1 RMW (W2).

    Capacity: up to [2^32 - 2] concurrent readers (the packed count
    field keeps the paper's full 32 bits) and [2^31 - 1] slots. *)

val algorithm : string

(** The register surface both slot-storage policies share —
    {!Register_intf.ZERO_COPY} and {!Register_intf.FENCEABLE} plus
    R2', telemetry and the white-box surface. *)
module type BASE = sig
  include Register_intf.ZERO_COPY
  (** [read_view] is the pinned zero-copy read: the view stays stable
      until this same reader's {e next} read (the slot cannot be
      recycled while this reader's presence is accounted on it). *)

  val read_stamped_into : reader -> dst:int array -> int
  (** {!Register_intf.STAMPED}: [read_into] that allocates nothing —
      the subscription step of [read_view], with the validated view
      left in the handle rather than returned as a tuple. *)

  val view_stamp : reader -> int
  (** {!Register_intf.STAMPED}: the publish stamp of this reader's
      pinned view — one plain load of the subscribed slot's stamp
      word. *)

  val probe_stamp : t -> int
  (** {!Register_intf.STAMPED}: the stamp of the currently published
      value in two plain loads (synchronization word, then that slot's
      stamp), no RMW, callable from any thread.  Stamps are strictly
      increasing over the writer role (resynced across failover by
      {!recover_crash}), so equality with a previously collected stamp
      certifies the register still publishes the collected value; a
      probe racing a recycle can read a {e newer} stamp — a spurious
      mismatch — but never an older one. *)

  val read_plain : reader -> f:(Mem.buffer -> int -> 'a) -> 'a
  (** R2' (ROADMAP item 2a): the validated copy-free plain-load read.
      Runs [f] directly on the {e currently published} slot bracketed
      by the slot's begin/end publish stamps (stored by the writer
      around the content copy, seqlock-style), skipping even the
      [last_index] comparison and the presence machinery.  On a stamp
      mismatch — a write overlapped the scan — it falls back to
      {!S.read_with} exactly once (never a retry loop), so
      wait-freedom is preserved: worst case one wasted scan plus one
      classic read.

      When the packed synchronization word still equals the one this
      handle cached at its last subscription, the scan and validation
      are skipped entirely and the pinned cached view is returned (the
      subscribed slot is presence-pinned, hence immutable) — one load
      per read at steady state in a mixed hold loop.

      The subscription pin of [rd] is untouched by a validated R2'
      read; mixing {!read_plain} and {!S.read_with} on one handle
      stays atomic (a validated plain value is always at least as new
      as the pinned one, and a later classic read resubscribes past
      it).

      [f] may run on a torn view whose result is then discarded: it
      must be pure and total on arbitrary word contents, exactly like
      a seqlock read section, and must not retain the buffer. *)

  val write_guarded : t -> guard:(unit -> unit) -> src:int array -> len:int -> unit
  (** {!Register_intf.FENCEABLE}: [write] with [guard ()] run between
      the content copy and the W2 publish exchange.  A raising guard
      aborts the write with nothing published (the prepared slot stays
      free with counters 0/0) — the epoch-fence hook of
      [Arc_resilience.Election]. *)

  val recover_crash : t -> int
  (** {!Register_intf.FENCEABLE}: successor-writer recovery after a
      failover.  A writer that crashed between its W2 publish and the
      W3 supersede-freeze leaves the superseded slot's subscriber
      count recorded nowhere (it lived in the synchronization word the
      exchange replaced), so the slot can look free while readers are
      still on it.  Every write journals that slot index before
      publishing; [recover_crash] quarantines the journaled slot
      (returning 1) or is a no-op on a clean journal (returning 0),
      and re-establishes the writer-local [last_slot] invariant.  A
      quarantined slot is a permanent but bounded leak — at most one
      per writer crash — paid for by over-provisioning reader
      identities (each unused identity is a net spare slot, keeping
      Lemma 4.1 strict).  Writer-role only, to be called once when
      taking over the role. *)

  val quarantine : t -> int -> unit
  (** {!Register_intf.FENCEABLE}: retire a slot convicted by evidence
      {e outside} the register's own journal — an integrity layer
      (checksum scan of a crash-recovered mapping) finding a torn
      content copy.  Idempotent; writer-role only; same bounded-leak
      accounting as {!recover_crash}.
      @raise Invalid_argument if the slot index is out of range. *)

  val write_probes : t -> int
  (** Total slots examined by all {!write} free-slot searches so far
      (writer-thread view).  With the hint enabled this grows as
      O(1) per write; without it as O(N) in adverse cases — the
      measured quantity of experiment E5. *)

  val writes : t -> int
  (** Number of completed writes (writer-thread view). *)

  (** {2 Telemetry (ISSUE 5)}

      Always-on wait-free observability.  All counters are host-heap
      {!Arc_obs.Obs.Cell}s — plain single-writer words outside the
      memory substrate — so recording adds {e no} substrate
      operations: nothing for {!Arc_mem.Counting} to charge to the
      algorithm, no scheduling points under the virtual scheduler
      (attaching telemetry changes no checker-visible history), and no
      RMW or fence on the R2 read fast path (the fast-path hit marker
      is a plain increment of the reader's private cache-line-isolated
      cell).  With no telemetry attached, every hook is a single
      [None] branch. *)

  type telemetry

  val make_telemetry :
    ?ring:int -> ?clock:(unit -> int) -> readers:int -> unit -> telemetry
  (** [ring] bounds the slot-transition trace (default 256 entries,
      rounded up to a power of two); [clock] supplies ring timestamps
      (default constant 0 — pass the substrate clock or a wall-time
      reader as appropriate; it must itself be observation-free). *)

  val set_telemetry : t -> telemetry option -> unit
  (** Attach {e before} creating reader handles: a handle resolves its
      per-identity counter cells once, at {!reader} time; handles
      created earlier never record. *)

  val telemetry : t -> telemetry option

  val fast_reads : telemetry -> int
  (** Total reads served on the RMW-free R2 fast path (racy sum over
      per-reader cells; exact once readers are joined). *)

  val slow_reads : telemetry -> int
  (** Total reads that paid the R3+R4 RMW pair.  [fast_reads +
      slow_reads] = total reads by telemetry-carrying handles. *)

  val hint_hits : telemetry -> int
  (** §3.4 free-slot proposals accepted by W1 searches. *)

  val plain_reads : telemetry -> int
  (** Reads served by a validated R2' plain load ({!read_plain}). *)

  val plain_fallbacks : telemetry -> int
  (** R2' attempts that failed validation and fell back to the classic
      path (those reads are additionally counted fast or slow by the
      fallback itself). *)

  val metrics : t -> Arc_obs.Obs.metric list
  (** Register counters (writes, probes, quarantined) plus — when
      telemetry is attached — per-reader fast/slow read counters, hint
      hits and trace-ring depth, ready for
      {!Arc_obs.Obs.prometheus}/{!Arc_obs.Obs.json}. *)

  val trace : t -> Arc_obs.Ring.entry list
  (** Surviving slot-state transitions, oldest first ([] when no
      telemetry is attached). *)

  (** White-box access for tests: the §4 lemmas as executable
      checks. *)
  module Debug : sig
    val slots : t -> int
    val current : t -> int
    (** Packed ⟨index, count⟩ word; decode with {!Arc_util.Packed}. *)

    val r_start : t -> int -> int
    val r_end : t -> int -> int

    val presence_slack : t -> int
    (** [readers - (Σ_j (r_start(j) - r_end(j)) + count(current))] —
        the presence units missing from Lemma 4.1's ledger.  0 in any
        quiescent live state.  Under crash-stop readers, each crash
        can leak at most one unit (a reader that died between its R3
        release and R4 subscribe), so a valid quiescent state has
        slack in [0, crashed readers]; negative slack means presence
        was double-counted (e.g. a lost release increment).
        Quiescent-state check (call while no operation is in
        flight). *)

    val presence_bound_holds : t -> bool
    (** [presence_slack t = 0] — Lemma 4.1's ledger balanced exactly,
        the crash-free quiescent invariant. *)

    val free_slot_exists : t -> bool
    (** Lemma 4.1: at least one slot other than the published one has
        [r_start = r_end].  Quiescent-state check; must keep holding
        under any number of crash-stop readers (N readers pin at most
        N of the N+2 slots). *)

    val force_current : t -> int -> unit
    (** Test-only: overwrite the packed synchronization word, e.g. to
        place the count at the saturation boundary and exercise the
        {!Register_intf.Saturated} guard. *)

    val unvalidated_plain : reader -> f:(Mem.buffer -> int -> 'a) -> 'a
    (** Negative control for the R2' tests: the plain scan with the
        stamp validation deliberately skipped.  Under a schedule that
        overlaps a write it returns torn views — the payload checker
        must convict it, proving the validation in {!read_plain} is
        load-bearing.  Never use outside tests. *)
  end
end

(** The full ARC register module with fixed slot storage: {!BASE}
    plus the hint-ablation constructor.  Named so that consumers
    holding a register built over a {e runtime}-chosen substrate (e.g.
    a first-class [Mem_intf.S] over an mmap'd file,
    {!Arc_shm.Shm_mem.mem}) can still package the functor result:
    [(module Arc.S with type Mem.atomic = ...)]. *)
module type S = sig
  include BASE

  val create_with : use_hint:bool -> readers:int -> capacity:int -> init:int array -> t
  (** Like {!create} but choosing whether the §3.4 free-slot hint is
      used ({!create} enables it).  [use_hint:false] is the ablation
      arm of experiment E5. *)
end

(** The register module with elastic slot storage
    ({!Arc_dynamic.Make}): {!BASE} plus buffer accounting and
    stale-storage reclaim. *)
module type ELASTIC = sig
  include BASE

  val footprint_words : t -> int
  (** Total words currently allocated across all slot buffers. *)

  val reallocations : t -> int
  (** Number of buffer replacements performed by writes so far. *)

  val reclaim_stale : t -> lease:int -> int
  (** [reclaim_stale t ~lease] revokes the storage of every slot that
      was superseded more than [lease] writes ago and is still pinned
      by reader presence — the signature of a crashed or stalled
      reader.  Returns the number of slots revoked by this call.
      Writer-thread only (it is part of the writer's side of the
      protocol).
      @raise Invalid_argument if [lease < 0]. *)

  val set_lease : t -> int option -> unit
  (** [set_lease t (Some l)] makes every [l]-th write run
      [reclaim_stale ~lease:l] automatically; [None] (the default)
      disables auto-reclaim.  Writer-thread only.
      @raise Invalid_argument if [l < 1]. *)

  val reclaimed : t -> int
  (** Total slots whose storage has been revoked so far. *)

  val live_buffers : t -> int
  (** Slots currently holding non-empty storage — the elastic
      footprint in {e slots} rather than words.  With reclaim active
      this must stay within N + 2 for the {e admitted} reader
      population N, however many readers have come and gone; the
      churn soak tracks it against the admission gate's
      capacity. *)
end

(** {2 Slot storage}

    ARC has one implementation, {!Core}, parameterised by how slot
    buffers are stored.  That is the only point of variation; the
    synchronization (Algorithms 2–3), the §3.4 hint, R2', crash
    recovery and telemetry are shared. *)

type storage =
  | Fixed
      (** N+2 buffers of [capacity] words, allocated in slot order by
          [create] and never replaced ({!Make}).  Nothing is ever
          revoked, so every read is wait-free. *)
  | Elastic
      (** Each write sizes its target slot's buffer to the value (grow
          always, shrink below half), and [reclaim_stale]/[set_lease]
          revoke the storage of stale pinned slots
          ({!Arc_dynamic.Make}). *)

module type POLICY = sig
  val algorithm : string
  (** Report name, e.g. ["arc"]. *)

  val name : string
  (** Module name used in error messages, e.g. ["Arc"]. *)

  val storage : storage
end

(** The shared ARC core.  Its two instantiations are {!Make} (fixed
    storage) and [Arc_dynamic.Make] (elastic storage); instantiate
    those rather than this functor.  Under fixed storage the
    reclaim operations never revoke anything. *)
module Core (_ : POLICY) (M : Arc_mem.Mem_intf.S) : sig
  include ELASTIC with module Mem = M

  val create_with : use_hint:bool -> readers:int -> capacity:int -> init:int array -> t
end

module Make (M : Arc_mem.Mem_intf.S) : S with module Mem = M
(** ARC with fixed slot storage. *)
