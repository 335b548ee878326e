(** ARC instantiated over a {!Shm_mem} mapping, packaged as a
    first-class module, plus the bundled crash-recovery step.

    The functor application [Arc.Make ((val Shm_mem.mem m))] happens
    inside {!create}, so its result types are local to that call; the
    {!INSTANCE} packaging is what lets harness code (the kill-9
    harness, the two-process example, the benchmark) carry the
    register around as an ordinary value. *)

module type INSTANCE = sig
  module M : Arc_mem.Mem_intf.S with type atomic = int
  module R : Arc_core.Arc.S with module Mem = M

  val mapping : Shm_mem.mapping
  val reg : R.t
end

type instance = (module INSTANCE)

val create :
  Shm_mem.mapping ->
  readers:int ->
  capacity:int ->
  init:int array ->
  instance
(** Build an ARC register inside a {b fresh} mapping and record its
    geometry in the superblock.  Creator-only (see {!Shm_mem}'s
    sharing discipline): create the instance, then fork; both
    processes use the inherited handles against the shared file.
    @raise Invalid_argument if the mapping already holds a register,
    or if the mapping cannot fit the register's footprint. *)

val recover : instance -> (Shm_mem.recovery * int, string) result
(** The full post-crash recovery bundle, run by the surviving process
    on its live instance after the writer died:

    + {!Shm_mem.recover}: checksum-scan the mapping, quarantining
      torn/corrupt buffers in the file and opening a new epoch;
    + mirror each convicted buffer into the register's free-slot
      search ([R.quarantine] — buffer ordinal = slot index);
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

(** {1 Fabric packaging}

    A multi-process fabric: [shards] identical ARC registers in {b one}
    mapping, plus the reign table ({!Shm_mem.alloc_reign_table}) that
    gives each shard its own election word and writer-fence epoch and
    the whole fabric its configuration epoch.  Wrap the registers with
    {!Arc_fabric.Fabric.Make}[.of_registers] and attach the
    configuration-epoch cell for reign-certified snapshots. *)

module type FABRIC_INSTANCE = sig
  module M : Arc_mem.Mem_intf.S with type atomic = int
  module R : Arc_core.Arc.S with module Mem = M

  val mapping : Shm_mem.mapping
  val shards : int
  val regs : R.t array
end

type fabric_instance = (module FABRIC_INSTANCE)

val create_fabric :
  Shm_mem.mapping ->
  shards:int ->
  readers:int ->
  capacity:int ->
  init:int array ->
  fabric_instance
(** Build [shards] identical registers inside a fresh mapping —
    sequentially, so shard [s]'s buffers are mapping ordinals
    [s·nslots .. (s+1)·nslots − 1] — allocate the reign table, and
    record the (per-shard) geometry.  Creator-only; create, then fork.
    @raise Invalid_argument if the mapping already holds a register or
    cannot fit the footprint. *)

val recover_shard :
  fabric_instance -> shard:int -> (Shm_mem.recovery * int, string) result
(** The {!recover} bundle scoped to one shard: {!Shm_mem.recover_shard}
    (scan only that shard's ordinals; bump the shard's reign-table
    epoch and fence), mirror its convictions into the shard's register
    (translating mapping ordinals to register slots), then that
    register's [recover_crash].  Run by the shard's elected successor
    as its campaign takeover while other shards' writers stay live. *)
