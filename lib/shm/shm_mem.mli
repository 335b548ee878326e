(** A file-backed shared-memory instance of {!Arc_mem.Mem_intf.S},
    with the durability layer that makes a register mapping survive
    real process crashes (DESIGN.md §6d).

    {1 Model}

    A {e mapping} is an mmap'd ([MAP_SHARED]) file of machine words:
    a superblock, then an arena of self-describing records —
    synchronization cells, multi-word buffers, raw harness regions
    (see {!Shm_layout}).  {!mem} packages a mapping as a first-class
    [Mem_intf.S], so ARC and every baseline run over it {e unchanged};
    with the register's words living in a shared file instead of the
    OCaml heap, writer and readers can be different OS processes.

    Synchronization words are accessed through C stubs applying
    hardware [__atomic] builtins to the mapping (OCaml's [Atomic] only
    covers heap cells): RMWs are seq-cst — they are the paper's
    synchronization instructions and their cost is the thing being
    measured.  Cell loads are seq-cst and cell [store_release]s are
    release, both bare MOVs on x86-TSO — the paper's §3.3 plain
    accesses.  A cell [store] is sequentially consistent, as on the
    heap: a seq-cst exchange whose old value is dropped.

    {1 Sharing discipline}

    Allocation (including register creation) is {b creator-only}: the
    bump allocator uses plain stores, so build the full register
    before sharing the mapping.  The supported execution pattern is
    {e create → fork}: child and parent inherit heap handles ([Arc.t],
    readers) that point into the same file.  A {e fresh} process may
    {!attach} a mapping for recovery and inspection ({!recover},
    {!read_latest}, {!iter_buffers}) but must not rebuild a live
    register over it — [create] would reallocate, and writer-private
    heap state ([last_slot], quarantine list) does not survive in the
    file by design; the supervision story for live handles is fork
    inheritance plus {!recover}.

    {1 Durability protocol}

    Every multi-word buffer store ([write_words]) is bracketed by a
    global publish sequence stamped into the buffer's trailer —
    [begin_seq] before the payload copy, [end_seq] after — together
    with the current writer epoch and a checksum over (len, epoch,
    seq, payload).  A SIGKILL loses no {e executed} stores (the pages
    stay in the kernel page cache); it only stops the program between
    two instructions.  So a crash mid-copy leaves
    [begin_seq <> end_seq] (torn), and damage to a completed slot
    breaks its checksum — both convictable by {!recover} from the
    bytes alone, with no cooperation from the dead process.  This is
    process-crash durability, not power-failure durability: nothing
    here calls [msync], because the crash model is kill-9, not losing
    the page cache. *)

(** {1 Mappings} *)

type mapping

val create : path:string -> words:int -> mapping
(** [create ~path ~words] creates (truncating any existing file) and
    maps a fresh [words]-word mapping.  The magic word is written
    last, so a creator crash leaves a file {!attach} rejects.
    @raise Invalid_argument if [words] cannot hold a superblock.
    @raise Unix.Unix_error on filesystem failure. *)

val attach : path:string -> mapping
(** Map an existing register file, validating magic, layout version,
    recorded size and allocation cursor.
    @raise Failure with a diagnostic if the file is not a healthy
    register mapping (wrong magic, version skew, size mismatch).
    @raise Unix.Unix_error on filesystem failure. *)

val close : mapping -> unit
(** Unmap the mapping and close the backing descriptor.  Idempotent.
    Do not use [m] after [close]: plain word accesses raise
    [Invalid_argument], and the atomic ones fault. *)

val path : mapping -> string
val size_words : mapping -> int

(** {1 The memory substrate} *)

val mem : mapping -> (module Arc_mem.Mem_intf.S with type atomic = int)
(** The mapping as a register memory substrate ([name = "shm"]).
    Exposing [atomic = int] (a word index into the mapping) lets
    harness code hand mapping cells — e.g. {!shard_epoch_cell} — to
    consumers of [M.atomic], such as an epoch-fenced writer wrapper
    whose fence must survive the writer's death.

    [alloc]/[atomic*] are creator-only (see the sharing discipline
    above); all other operations are cross-process safe.  [blit] does
    not publish a trailer (copy-based baselines only; the register
    write path never blits). *)

(** {1 Superblock} *)

val tick : mapping -> int
(** Fetch-and-add on the shared logical clock: a fresh timestamp
    totally ordered across {e all} processes of the mapping.  History
    events recorded against a shared clock are what make
    cross-process operation intervals comparable to the atomicity
    checker. *)

val clock : mapping -> int
(** Current clock value (next [tick] will return at least this). *)

val epoch : mapping -> int
(** The mapping generation: starts at 1 and is bumped by every
    {!recover}, whichever seat it recovers.  Stamped into every buffer
    trailer; not a writer fence (each seat fences with its own
    {!shard_epoch}). *)

val publish_seq : mapping -> int
(** Number of buffer publishes performed on this mapping so far. *)

val set_geometry : mapping -> readers:int -> capacity:int -> unit
(** Record register geometry so a fresh process can interpret the
    mapping (buffer ordinal [i] = register slot [i]).  Creator-only. *)

val geometry : mapping -> (int * int * int) option
(** [(readers, capacity, nslots)] as recorded, or [None]. *)

(** {1 Reign table: the writer seats}

    A register mapping — one register per shard, all in one file; a
    single register is one shard — carries a {e reign table}: per
    shard, a {e writer seat} of a [term ∥ vote] election word, a
    writer-fence epoch and a recovery-fence stamp, each seat on its
    own cache line; plus the single fabric-wide {e configuration
    epoch}, fetch-add-bumped after any shard changes leaders.
    Certified snapshots load the configuration epoch before their
    first probe pass and re-check it after the last — equality proves
    no handoff completed inside the window (DESIGN.md §8b).

    All [*_cell] accessors return word indices usable as [M.atomic] of
    {!mem}'s instance, so state backed by them survives any process's
    death. *)

val alloc_reign_table : mapping -> shards:int -> int
(** Allocate the mapping's reign table (creator-only, at most one per
    mapping), recording its base in the superblock and returning it.
    Election words start at {!Arc_util.Term_vote.none}; the
    configuration epoch and every shard epoch start at 1.
    @raise Invalid_argument on [shards < 1], a second table, or an
    exhausted mapping. *)

val reign_shards : mapping -> int
(** Shard count of the reign table; 0 if the mapping has none. *)

val config_epoch : mapping -> int
(** Current fabric-wide configuration epoch.
    @raise Invalid_argument if the mapping has no reign table. *)

val config_epoch_cell : mapping -> int
(** The configuration-epoch word as an [M.atomic] of {!mem}'s
    instance.  Bumped (fetch-and-add) by a shard's elected successor
    {e after} its §6d takeover and {e before} its first publish, so
    epoch equality across a snapshot's probe window certifies that no
    handoff completed inside it.
    @raise Invalid_argument if the mapping has no reign table. *)

val shard_election : mapping -> shard:int -> int
(** Shard [shard]'s election word ([term ∥ vote]).
    @raise Invalid_argument if out of range or no table. *)

val shard_election_cell : mapping -> shard:int -> int
(** Shard [shard]'s election word as an [M.atomic] — hand it to
    {!Arc_resilience.Election} and that shard's election state
    survives any process's death.  Manipulate
    only by seq-cst CAS through the substrate.
    @raise Invalid_argument if out of range or no table. *)

val shard_epoch : mapping -> shard:int -> int
(** Shard [shard]'s writer-fence epoch (starts at 1; bumped by every
    {!recover} of the seat and by fenced-handle issue against the shard's
    epoch cell).
    @raise Invalid_argument if out of range or no table. *)

val shard_epoch_cell : mapping -> shard:int -> int
(** Shard [shard]'s epoch word as an [M.atomic]: back that shard's
    writer fence with it and the fence survives any process's death.
    @raise Invalid_argument if out of range or no table. *)

val shard_fence_at : mapping -> shard:int -> int
(** Shared-clock stamp of shard [shard]'s most recent {!recover}; 0 if
    never recovered.  The crash-aware checker's [?fence] for the
    crashed writer's pending write.
    @raise Invalid_argument if out of range or no table. *)

(** {1 Raw words}

    Escape hatches below the substrate abstraction: harness write-logs
    shared between processes ([atomic_*]) and deliberate corruption in
    negative-control tests ([unsafe_*] perform plain, unordered
    accesses). *)

val alloc_raw : mapping -> int -> int
(** Allocate an [n]-word raw region (skipped by the integrity scan),
    returning the index of its first word.  Creator-only. *)

val atomic_get : mapping -> int -> int
val atomic_set : mapping -> int -> int -> unit

val unsafe_get : mapping -> int -> int
val unsafe_set : mapping -> int -> int -> unit

(** {1 Buffer inspection} *)

type buffer_info = {
  ordinal : int;  (** allocation order; = register slot for ARC mappings *)
  base : int;  (** record base word index *)
  cap : int;
  state : int;  (** {!Shm_layout.state_live} or [state_quarantined] *)
  len : int;
  bepoch : int;  (** writer epoch stamped at publish *)
  begin_seq : int;
  end_seq : int;
  cksum : int;
}

val iter_buffers : mapping -> (buffer_info -> unit) -> unit
(** Walk every buffer record in allocation order.
    @raise Failure if the record arena is structurally damaged. *)

val checksum : mapping -> buffer_info -> int
(** Recompute the publish checksum of [info]'s buffer from the bytes
    now in the mapping (the 4-lane fold of {!Shm_layout}, keyed by the
    trailer's length, epoch and begin sequence).  {!recover} convicts
    a complete trailer ([begin_seq = end_seq]) whose [cksum] differs
    from it as [Checksum].
    @raise Invalid_argument if the trailer length is outside the
    buffer. *)

(** {1 Recovery} *)

type reason =
  | Torn  (** [begin_seq <> end_seq]: the writer died mid-copy *)
  | Checksum  (** trailer complete but contents do not verify *)
  | Bad_length  (** trailer length outside the buffer's capacity *)

val reason_to_string : reason -> string

type conviction = {
  ordinal : int;  (** buffer ordinal = ARC slot index *)
  at : int;  (** record base word index *)
  seq : int;  (** publish sequence of the convicted write *)
  why : reason;
}

type recovery = {
  convicted : conviction list;  (** newly quarantined by this scan *)
  intact : int;  (** buffers holding a verified published snapshot *)
  unpublished : int;  (** buffers never written (empty trailer) *)
  quarantined_before : int;  (** already quarantined by an earlier scan *)
  new_epoch : int;  (** writer epoch after this recovery's bump *)
  recovery_fence : int;  (** shared-clock stamp of this recovery *)
  last_seq : int;  (** highest intact publish sequence, 0 if none *)
}

val recover : mapping -> shard:int -> (recovery, string) result
(** Post-crash integrity scan of seat [shard]: classify the seat's
    buffers from their bytes (see the durability protocol above) —
    ordinals [shard·nslots .. (shard+1)·nslots − 1] under the recorded
    geometry, the whole arena for a single register — and quarantine
    torn/corrupt ones in the file ([state_quarantined], honoured by
    later scans and {!read_latest}).  Then bump the seat's
    {!shard_epoch}, stamp its {!shard_fence_at} with a fresh clock
    tick, and advance the mapping generation ({!epoch}).

    Other seats' buffers are not even classified — their writers may
    be live and mid-copy, so a transiently torn trailer there is
    traffic, not evidence.  Conviction ordinals are mapping-wide
    (subtract [shard·nslots] for the register-local slot).

    Returns [Error] — {e convicting the whole mapping} — if the
    recorded layout version differs from this build's
    ({!Shm_layout.version}), checked before any table byte is
    interpreted; if the mapping has no reign table, no recorded
    geometry, or no seat [shard]; if the arena is unwalkable or record
    counts disagree with the superblock; or if any scanned trailer
    carries an epoch {b ahead} of the generation (a stale superblock:
    this file is an older copy of a mapping that lived on, so none of
    its free-slot or fence state can be trusted).

    The caller owning a live register handle must mirror the slot
    convictions into it ([quarantine]) and run the register's own
    [recover_crash]; {!Shm_arc.recover} bundles all three steps. *)

val metrics : unit -> Arc_obs.Obs.metric list
(** Process-cumulative recovery telemetry: successful/rejected scans,
    convictions by evidence class (torn / checksum / bad-length) and
    intact buffers, across every mapping this process has recovered.
    Counters are {!Arc_obs.Obs.Cell}s updated on the (effectively
    single-threaded) recovery path. *)

val read_latest : mapping -> (int * int array) option
(** The most recent verified snapshot: scans live, intact buffers and
    returns [(publish_seq, payload)] for the highest [end_seq], or
    [None] if nothing verified was ever published.  Works on a freshly
    attached mapping with no register handle — the crash harness's
    view of what survived.
    @raise Failure if the record arena is structurally damaged. *)
