(** ARC instantiated over a {!Shm_mem} mapping, packaged as a
    first-class module, plus the bundled crash-recovery step.

    The functor application [Arc.Make] over the caller's memory module
    happens inside {!create}, so its result types are local to that
    call; the {!INSTANCE} packaging is what lets harness code (the
    kill-9 harness, the two-process example) carry the registers
    around as an ordinary value.  One shape covers a single register
    and a multi-process fabric: [shards] registers in one mapping,
    each behind its own writer seat of the reign table. *)

module type INSTANCE = sig
  module M : Arc_mem.Mem_intf.S with type atomic = int
  module R : Arc_core.Arc.S with module Mem = M

  val mapping : Shm_mem.mapping
  val regs : R.t array  (** one register per writer seat *)
end

type instance = (module INSTANCE)

val create :
  ?mem:(module Arc_mem.Mem_intf.S with type atomic = int) ->
  Shm_mem.mapping ->
  shards:int ->
  readers:int ->
  capacity:int ->
  init:int array ->
  instance
(** Build [shards] identical ARC registers inside a {b fresh} mapping —
    sequentially, so shard [s]'s buffers are mapping ordinals
    [s·nslots .. (s+1)·nslots − 1] — allocate the reign table that
    gives each register its own writer seat (election word,
    writer-fence epoch, recovery fence) and the mapping its
    configuration epoch, and record the per-register geometry.  A
    single register is [~shards:1]: one seat, seat 0.  A fabric wraps
    the registers with {!Arc_fabric.Fabric.Make}[.of_registers] and
    attaches the configuration-epoch cell for reign-certified
    snapshots.

    [mem] is the memory the registers run over: by default the
    mapping's own ([Shm_mem.mem m]); a caller may pass a wrapper of
    it, such as [Arc_fault.Fault_mem.Make], when a process must crash
    at a planned access.  A [mem] that does not allocate in [m] is
    refused after the registers are built.

    Creator-only (see {!Shm_mem}'s sharing discipline): create the
    instance, then fork; both processes use the inherited handles
    against the shared file.
    @raise Invalid_argument on [shards < 1], if the mapping already
    holds a register, if it cannot fit the footprint, or if [mem]
    placed the registers' buffers outside it. *)

val recover : instance -> shard:int -> (Shm_mem.recovery * int, string) result
(** The full post-crash recovery bundle for seat [shard], run by the
    seat's elected successor on its live instance after the seat's
    writer died, while other seats' writers stay live:

    + {!Shm_mem.recover}: checksum-scan the seat's buffers,
      quarantining torn/corrupt ones in the file, and open a new epoch
      on the seat;
    + mirror each convicted buffer into the register's free-slot
      search ([R.quarantine], translating mapping ordinals to register
      slots);
    + [R.recover_crash]: quarantine the prefreeze-journaled slot and
      re-establish the last-slot invariant from the synchronization
      word (both live in the mapping, so the journal survives the
      crash).

    Returns the scan report and the number of slots the register
    journal quarantined (0 or 1), or [Error] if the scan convicts the
    whole mapping.  Each crash retires at most one slot — the torn
    copy and the journaled slot are the same write's target and its
    predecessor — so provision one spare reader identity per crash to
    be tolerated. *)
