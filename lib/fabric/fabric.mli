(** Sharded register fabric with wait-free atomic cross-shard
    snapshots (ISSUE 6).

    A keyed array of (1,N) registers — one shard per key, any
    algorithm with the {!Arc_core.Register_intf.STAMPED} capability
    ([caps.snapshot_read = true]) slots in — plus an atomic
    multi-shard {!Make.snapshot_certified}: a vector of shard values
    that were all simultaneously published at one instant inside the
    snapshot's interval.

    The snapshot is Afek et al.'s double collect with modified-twice
    helping, driven by publish stamps instead of payload comparison:
    collect every shard once ([read_stamped_into]), then certify the vector
    with a probe pass of stamp-only re-reads ([probe_stamp], two plain
    loads per shard).  A shard whose stamp moved is re-collected and
    the pass retried; a shard that moves {e twice} identifies a writer
    whose second write began inside this scan — that writer, having
    seen the scan announced, deposited a complete snapshot of its own
    before publishing, and the scanner adopts it.  Helping is lazy: a
    substrate counter announces active scans, and writers only pay the
    embedded collect while one is in flight (one extra load
    otherwise).  Total cost is bounded by fabric shape — at most
    [2·shards + 3] probe passes per certification round — regardless
    of scheduling, so a snapshot is wait-free whenever the underlying
    registers are.
    See DESIGN.md §8 for the linearization and helping-validity
    arguments.

    Threading model: [writers] writer threads, writer [w] owning
    shards [s] with [s mod writers = w] (enforced); [readers] scanner
    threads, each with its own {!Make.scanner} context.  Each writer
    deposits its helping snapshots through its own ARC register on the
    host heap, read by every scanner and writer identity, so all
    participants must share one OCaml heap (the shard registers
    themselves may live on any substrate, including shared memory).
    In the steady state neither a snapshot nor a helping deposit
    allocates.

    {b Reign fencing.}  Every fabric owns a configuration
    epoch: one substrate word, 1 at creation, bumped by every
    {!Arc_resilience.Election} campaign that completes a handoff.  A
    fabric whose shards have individually elected writers
    {!Make.attach_reign}s the shared word instead (for a shm fabric,
    the mapping's reign table).  The one snapshot,
    {!Make.snapshot_certified}, brackets each scan round with two
    plain loads of that word and refuses to serve a vector whose probe
    window a handoff landed inside — retrying up to a bounded budget,
    then returning the typed {!reign_change} verdict.  A fabric nobody
    elects over never sees its epoch move and always certifies.  See
    DESIGN.md §8b. *)

type reign_change = { r_opened : int; r_now : int }
(** Certification failure: the configuration epoch read [r_opened] when
    the snapshot's final round opened and [r_now] afterwards, and the
    retry budget is spent.  [r_now > r_opened] means the epoch was
    observed to move; [r_now = r_opened] means the final round's retries
    were spent on deposit starvation (epoch-matched borrowing kept
    hitting the dirty-pass cap) rather than an observed move.  Either
    way the vector was discarded, never served. *)

val reign_metrics : unit -> Arc_obs.Obs.metric list
(** Process-wide reign telemetry: [arc_reign_epoch] (gauge, the
    highest configuration epoch any handoff in this process reached),
    [arc_reign_handoffs_total], [arc_reign_snapshot_reign_retries_total]
    (rounds re-opened on an observed epoch move),
    [arc_reign_snapshot_starved_reopens_total] (rounds re-opened at the
    dirty-pass cap with the epoch unmoved) and
    [arc_reign_changed_total]. *)

val reset_reign_metrics : unit -> unit

(**/**)

(** Internal: written by {!Arc_resilience.Election} on handoff and by
    certified scans; exposed for that wiring and for tests. *)
module Reign_tel : sig
  val epoch : int Atomic.t
  val handoffs : int Atomic.t
  val retries : int Atomic.t
  val starved : int Atomic.t
  val changed : int Atomic.t
end

(**/**)

module Make (R : Arc_core.Register_intf.STAMPED) : sig
  type t
  (** A fabric of [shards] registers over [R]. *)

  type scanner
  (** A reader's context: per-shard register handles plus collect
      scratch.  One per reader thread; never shared. *)

  type writer
  (** A writer thread's context (shard ownership + helping state).
      One per writer identity; never shared. *)

  type snap
  (** A snapshot vector.  {b Stability}: a snapshot stays valid until
      its scanner's next snapshot ({!snapshot_certified} or
      {!snapshot_unvalidated}) and no longer.  A direct one aliases
      the scanner's scratch; a {!borrowed} one is a helping deposit
      pinned by the scanner's own handle on the lender's deposit
      register, unchanged however often the lender deposits again. *)

  val algorithm : string
  (** ["fabric(<R.algorithm>)"]. *)

  val create :
    shards:int -> writers:int -> readers:int -> capacity:int -> init:int array -> t
  (** [create ~shards ~writers ~readers ~capacity ~init] builds
      [shards] registers of [capacity] words initialized to [init],
      provisioned for [readers] scanner threads and [writers] writer
      threads.  Register identities scale with [readers + writers]
      (thread counts), never with [shards].  The helping channel adds
      one deposit register per writer, with elastic slot storage: it
      holds one word until helping writes fill it, and at most
      [readers + writers + 2] slots of [1 + shards·(2 + capacity)]
      words each after.  The fabric's own configuration epoch word
      starts at 1.
      @raise Invalid_argument unless [1 <= writers <= shards] and
      [readers >= 1] (plus the register's own constraints). *)

  val of_registers :
    R.t array -> writers:int -> readers:int -> capacity:int -> t
  (** Wrap pre-built registers — e.g. the [regs] of an
      {!Arc_shm.Shm_arc.create} instance, whose shards live in a
      shared mapping — into a fabric.  Each register must have been
      created with at least [readers + writers] identities (identity
      [readers + w] serves writer [w]'s helping collects) and
      [capacity] words; {!create} is [of_registers] over fresh
      registers.  The deposit channel stays host-heap, so each process
      builds its own fabric value over the shared registers and
      helping crosses threads, not processes.
      @raise Invalid_argument unless [1 <= writers <= shards] and
      [readers >= 1]. *)

  val attach_reign : ?max_retries:int -> t -> config:R.Mem.atomic -> unit
  (** Replace the fabric's own configuration epoch word with a shared
      one (for a shm fabric, {!Arc_shm.Shm_mem.config_epoch_cell} of
      the mapping's reign table), so {!snapshot_certified} fences
      snapshots against the handoffs that bump it.  [max_retries]
      (default: [shards t]) bounds how many times a certified
      snapshot re-opens before it returns {!reign_change}.  Writers'
      helping scans certify against the same word; in a
      multi-process fabric every process must attach the same word.
      @raise Invalid_argument if [config] reads below 1 (epoch 0 is
      the deposits' "never borrow" mark). *)

  val shards : t -> int
  val writers : t -> int
  val readers : t -> int
  val capacity : t -> int

  val owner_of : t -> int -> int
  (** [owner_of t s = s mod writers t] — the writer identity that owns
      shard [s]. *)

  val scanner : t -> int -> scanner
  (** Context for reader identity [i] in [0, readers).
      @raise Invalid_argument if out of range. *)

  val writer : t -> int -> writer
  (** Context for writer identity [w] in [0, writers).
      @raise Invalid_argument if out of range. *)

  val write : writer -> shard:int -> src:int array -> len:int -> unit
  (** Publish [src.(0..len-1)] to [shard].  While a snapshot is
      announced, first takes and deposits a certified helping snapshot
      (the wait-free helping protocol); otherwise adds a single load to
      the plain register write.  If certification fails mid-election
      the writer deposits a one-word epoch-0 marker instead, which no
      scanner adopts — so the deposit register is written before
      {e every} publish that observed an announced scan, and no
      scanner can adopt an older deposit whose epoch happens to match.
      The deposit is one write to the writer's deposit register and
      allocates nothing.
      @raise Invalid_argument if [shard] is out of range or not owned
      by this writer. *)

  val read : scanner -> shard:int -> dst:int array -> int
  (** Plain single-shard read (no cross-shard guarantee): the
      register's own [read_into] through this scanner's handle. *)

  val read_with : scanner -> shard:int -> f:(R.Mem.buffer -> int -> 'a) -> 'a
  (** Zero-copy single-shard read, as the register's [read_with]. *)

  val snapshot_certified : scanner -> (snap, reign_change) result
  (** The wait-free atomic cross-shard snapshot, certified against the
      configuration epoch.  Linearizes at an instant within its own
      interval: either the start of the final (clean) probe pass, or
      inside the interval of the helping deposit it adopted — which
      itself nests in this call's interval.  The epoch is loaded
      before the round's first probe pass and re-loaded after its
      clean pass; equality proves every shard value in the vector was
      published by a reign ≤ the snapshot's {!snap_epoch} (successors
      bump the epoch after takeover, before their first publish).
      Deposits are adopted only when certified under the same epoch.
      When no election is in flight the bracket costs two plain loads
      and the result is always [Ok]; when the epoch moves (or
      epoch-matched borrowing starves the dirty-pass cap), retries up
      to [max_retries] rounds (each bounded by the classic pass cap)
      and then returns [Error] — a typed verdict, never a possibly
      cross-reign vector. *)

  val snapshot_unvalidated : scanner -> snap
  (** {b Negative control} — one collect pass with no announcement and
      no probe, deliberately non-atomic: concurrent writes leave torn
      vectors.  Exists so tests and campaigns can demonstrate the
      fabric checker convicts what {!snapshot_certified} prevents.
      Never a real read path. *)

  val shard_len : snap -> int -> int
  val shard_stamp : snap -> int -> int
  (** @raise Invalid_argument unless [0 <= s < shards]. *)

  val shard_word : snap -> int -> int -> int
  (** [shard_word snap s i] — word [i] of shard [s]'s value.
      @raise Invalid_argument unless [0 <= s < shards] and
      [0 <= i < shard_len snap s]. *)

  val shard_copy : snap -> int -> dst:int array -> int
  (** Copy shard [s]'s value into [dst], returning its length.
      @raise Invalid_argument if [dst] is too short. *)

  val borrowed : snap -> bool
  (** [true] iff the snapshot was served from a helping deposit. *)

  val snap_epoch : snap -> int
  (** The configuration epoch the snapshot was certified under
      ([>= 1]); [0] only for {!snapshot_unvalidated}'s uncertified
      vectors. *)

  (** {2 Telemetry}

      Same wait-free discipline as the registers': host-heap
      single-writer cells, no substrate operations, no RMW. *)

  val snapshots_direct : t -> int
  val snapshots_borrowed : t -> int

  val snapshot_retries : t -> int
  (** Failed probe passes — bounded by [2·shards + 3] per snapshot;
      soaks watch this to falsify the wait-freedom bound. *)

  val deposits_made : t -> int
  val shard_writes : t -> int -> int

  val deposit_footprint_words : t -> int
  (** Words of slot storage the writers' deposit registers hold: one
      per writer on a fresh fabric, at most
      [writers · (readers + writers + 2) · (1 + shards·(2 + capacity))]
      after helping. *)

  val metrics : t -> Arc_obs.Obs.metric list
  (** Fabric counters (snapshot outcomes, retries, deposits, per-shard
      writes) and the [fabric_deposit_footprint_words] gauge for
      {!Arc_obs.Obs.prometheus}/{!Arc_obs.Obs.json}. *)
end
