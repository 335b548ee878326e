(** The common interface of every multi-word (1,N) register in this
    repository — ARC and all baselines implement it, so the test
    suites, the atomicity checker and the benchmark harness are
    written once and instantiated per algorithm.

    Semantics. A register holds a multi-word snapshot (an [int array]
    prefix of up to [capacity] words; each write may have a different
    length, as in the paper §3.3).  Exactly {b one} thread may call
    {!S.write}; up to [readers] threads may read, each through its own
    {!S.reader} handle (a handle must not be shared between threads).

    Reading is exposed as {!S.read_with}: the algorithm materializes a
    consistent snapshot and runs the callback on it.  The buffer
    passed to the callback is only guaranteed stable for the duration
    of the callback — wait-free algorithms such as ARC give stronger
    guarantees (stable until the same reader's next read), which they
    expose through the {!ZERO_COPY} capability.  This formulation
    keeps the comparison honest: ARC runs the callback directly on the
    shared slot (zero copies), Peterson and the seqlock run it on a
    validated private copy, and the lock-based register runs it inside
    the critical section. *)

(** What an algorithm can do, as one first-class record: harness
    layers (registry, figure builders, CLIs) select algorithms by
    querying [caps] instead of hard-coding name lists, and new
    capabilities extend this record instead of scattering more ad-hoc
    [val]s through {!S}. *)
type caps = {
  wait_free : bool;
      (** Both operations complete in a bounded number of steps
          regardless of the scheduler (true for ARC, RF, Peterson;
          false for the lock-based, seqlock and Lamport baselines). *)
  zero_copy : bool;
      (** [read_with] applies the callback directly to shared memory —
          no intermediate snapshot copy on the read path (ARC, RF, the
          lock-based register inside its critical section).  Copy-based
          algorithms (Peterson, seqlock, Lamport) are [false].
          Algorithms whose zero-copy view additionally outlives the
          callback implement the {!ZERO_COPY} sub-signature. *)
  max_readers : capacity_words:int -> int option;
      (** Hard bound on the number of reader threads, if the algorithm
          has one.  RF returns the word-size-dependent bound the paper
          discusses (58 on 64-bit C; 57 with OCaml's 63-bit ints); ARC
          returns [Some (2^32 - 2)]; Simpson [Some 1]; others
          [None]. *)
  snapshot_read : bool;
      (** The versioned-read capability: reads can report a publish
          stamp that changes with every write, and the stamp of the
          currently published value can be probed without copying the
          payload — the operations of the {!STAMPED} sub-signature.
          This is what makes an algorithm {e fabric-eligible}: the
          cross-shard double-collect snapshot ([Arc_fabric.Fabric])
          compares stamps, not payloads, to detect a shard modified
          during a collect.  Algorithms with [snapshot_read = true]
          must implement {!STAMPED}. *)
}

exception Saturated = Arc_util.Saturation.Saturated
(** Raised by an operation that detects its synchronization state at a
    documented capacity bound — e.g. ARC's packed readers-presence
    count reaching [2^32 - 2] (see {!Arc_util.Packed.max_readers}).
    The alternative is a silent wraparound of the count into the index
    bits, which would corrupt the register undetectably; saturating
    with a diagnostic error is the only safe degradation.  Cannot
    occur when [create]'s reader bound is respected: the guard is
    defense in depth for memory corruption and fault injection.

    This is a rebinding of {!Arc_util.Saturation.Saturated} (ISSUE 8):
    one exception and one message shape shared by the packed-word
    guard ({!Arc_util.Packed.succ_count}), the registers'
    post-increment presence checks, and the admission gate's terminal
    backpressure ([Arc_resilience.Admission]) — so a handler written
    against either name catches all of them. *)

(** {2 Reader admission (ISSUE 8)}

    The graceful alternative to {!Saturated}: instead of pre-declaring
    a static reader population and raising at the capacity bound, an
    {e admission gate} ([Arc_resilience.Admission]) sits in front of
    reader registration and converts capacity pressure into a typed
    verdict.  The verdict vocabulary lives here, next to the error it
    replaces, so core-layer consumers (sessions, harnesses, fabrics)
    can speak it without depending on the gate implementation. *)

type backpressure = {
  retry_after : int;
      (** Suggested delay before retrying admission, in the gate's
          clock units — full-jitter drawn, so synchronized rejected
          arrivals do not stampede back in lockstep. *)
  live : int;  (** Tickets currently held (the load that refused us). *)
  high_water : int;  (** Max simultaneous tickets ever held. *)
}

type 'ticket admission =
  | Admitted of 'ticket
      (** The caller holds a ticket: a leased claim on one reader
          identity, released by an explicit depart or — if the holder
          crashes without departing — reclaimed by the gate's lease
          sweep. *)
  | Backpressured of backpressure
      (** No identity free (and the bounded waiting room, if any, was
          exhausted): retry after [retry_after], or degrade. *)

let supports_readers caps ~readers ~capacity_words =
  match caps.max_readers ~capacity_words with
  | Some bound -> readers <= bound
  | None -> true

module type S = sig
  module Mem : Arc_mem.Mem_intf.S

  type t
  type reader

  val algorithm : string
  (** Short name used in reports: "arc", "rf", "peterson", "rwlock",
      "seqlock". *)

  val caps : caps
  (** The algorithm's capability record (wait-freedom, zero-copy
      reads, reader bound). *)

  val create : readers:int -> capacity:int -> init:int array -> t
  (** [create ~readers ~capacity ~init] builds a register for
      [readers] reader threads holding snapshots of at most [capacity]
      words, initialized to the full contents of [init].
      @raise Invalid_argument if [readers] exceeds the algorithm's
      bound, or [init] is longer than [capacity], or a size is
      non-positive. *)

  val reader : t -> int -> reader
  (** [reader t i] is the handle for reader identity [i] in
      [0, readers).  Each identity must be claimed by at most one
      thread, and a handle used by exactly one thread. *)

  val write : t -> src:int array -> len:int -> unit
  (** Publish the snapshot [src.(0..len-1)].  Single-writer: must only
      ever be called from one thread. *)

  val read_with : reader -> f:(Mem.buffer -> int -> 'a) -> 'a
  (** [read_with rd ~f] obtains the most recent consistent snapshot
      and applies [f buffer len] to it.  [f] must not retain [buffer]
      past its own return and must not write to it. *)

  val read_into : reader -> dst:int array -> int
  (** Copy the snapshot into [dst], returning its length.  Derived
      from {!read_with}; convenient for tests.
      @raise Invalid_argument if [dst] is shorter than the snapshot. *)
end

(** The zero-copy {e pinned view} capability: a read that returns the
    shared buffer itself, stable until this same reader's {b next}
    read — the stronger contract ARC's presence accounting (and RF's
    writer-private trace table) make possible, and the contract
    consumers such as the (M,N) extension and the zero-allocation
    examples rely on.  Implementors must have [caps.zero_copy =
    true]. *)
module type ZERO_COPY = sig
  include S

  val read_view : reader -> Mem.buffer * int
  (** The raw zero-copy read: returns the slot buffer and the snapshot
      length.  The view stays stable until this same reader's next
      read; the buffer must not be written through. *)
end

(** The {e guarded-publish} capability: a write entry point that runs
    a caller-supplied guard {b after} the snapshot copy but
    {b immediately before} the publish step (ARC's W2 exchange).  A
    guard that raises aborts the write with {e nothing published} —
    the target slot was free, so its half-written content is invisible
    and the next write simply reuses it.

    This is the register-side hook epoch-fenced writer failover
    ({!Arc_resilience.Election}) builds on: a standby that wins the
    succession bumps an epoch, and the deposed writer's in-flight
    write re-validates the epoch at the last step before publication,
    so its late write raises instead of regressing the register.  The
    guard narrows the unfenced window to the single publish
    instruction; the residual race (deposed writer descheduled between
    guard and publish for the whole promotion) is excluded by the
    supervision layer's lease discipline — see DESIGN.md §6c. *)
module type FENCEABLE = sig
  include S

  val write_guarded : t -> guard:(unit -> unit) -> src:int array -> len:int -> unit
  (** [write_guarded t ~guard ~src ~len] is {!S.write} with [guard ()]
      invoked between the content copy and the publish; whatever
      [guard] raises propagates and the register is unchanged (the
      write never took effect).  Single-writer discipline still
      applies to the set of {e non-aborted} writes. *)

  val recover_crash : t -> int
  (** Writer-succession hook: called by a {e new} writer taking over
      from one that may have crashed mid-write (the takeover of
      {!Arc_resilience.Election.Make.campaign}).  The paper's
      single-immortal-writer model never revisits a half-finished
      write, but a successor must: a crash between the publish exchange and the
      supersede-freeze leaves a slot whose subscribed readers are
      recorded nowhere — it looks free while still being read.
      Implementations journal the at-risk slot before publishing;
      [recover_crash] quarantines the journaled slot (permanently
      excluding it from reuse — a bounded leak covered by
      over-provisioned slots) and returns the number of slots
      quarantined by this call (0 when the journal is clean, i.e. the
      predecessor died between writes). *)

  val quarantine : t -> int -> unit
  (** [quarantine t slot] permanently retires [slot] from the free-slot
      search, exactly as {!recover_crash} does for the journaled slot.
      The external-evidence companion of [recover_crash]: an integrity
      layer below the register (e.g. [Arc_shm.Shm_mem.recover]'s
      checksum scan of a crash-recovered mapping) can convict slots the
      in-register journal knows nothing about — a torn content copy
      left by a writer the OS killed mid-[write_words] — and hands the
      conviction up through this hook.  Writer-role only; idempotent;
      the same bounded-leak accounting as [recover_crash] applies
      (provision one spare reader identity per tolerated crash). *)
end

(** The {e versioned-read} capability ([caps.snapshot_read = true]):
    every published value carries a {b stamp} — a per-register integer
    that differs between any two writes whose values could be
    distinguished — and the register exposes both a stamped read and a
    payload-free stamp probe.

    Contract:
    - {b Monotone per slot}: once a stamp has been returned for a
      storage location, a later different value in that location
      carries a strictly greater stamp, so [probe = collected stamp]
      certifies the location still holds the collected value.
    - {b Probe is cheap}: [probe_stamp] performs O(1) plain loads and
      no RMW — it is the building block of the fabric's double
      collect, executed once per shard per collect pass.
    - A probe that races a write may return a stamp no read ever
      observes; that only causes a (bounded) re-collect, never a false
      match.

    This is the capability the cross-shard snapshot
    ([Arc_fabric.Fabric]) is built on: Afek et al.'s double collect
    needs to ask "was this component modified since I read it?"
    without re-copying multi-KB payloads, and the stamp answers that
    in two loads. *)
module type STAMPED = sig
  include S

  val read_stamped_into : reader -> dst:int array -> int
  (** [read_stamped_into rd ~dst] is {!S.read_into} without any
      allocation — the collect primitive of the fabric's double
      collect, run once per shard per pass.  The stamp of the value it
      copied is then {!view_stamp}[ rd].
      @raise Invalid_argument if [dst] is shorter than the value. *)

  val view_stamp : reader -> int
  (** The publish stamp of the value this reader's last pinned read
      ({!read_stamped_into}, [read_with], [read_into]) returned — a
      plain load, valid until the reader's next read. *)

  val probe_stamp : t -> int
  (** The stamp of the currently published value — no payload access,
      no RMW, safe from any thread.  Equality with a previously
      collected stamp certifies the register still publishes the
      collected value (see the contract above). *)
end

(** A register algorithm packaged as a functor over the memory
    substrate, so one implementation serves real execution, counting,
    and simulation. *)
module type ALGORITHM = sig
  val algorithm : string

  module Make (M : Arc_mem.Mem_intf.S) : S with module Mem = M
end

(** A fabric-eligible algorithm: same packaging, stamped result. *)
module type STAMPED_ALGORITHM = sig
  val algorithm : string

  module Make (M : Arc_mem.Mem_intf.S) : STAMPED with module Mem = M
end
