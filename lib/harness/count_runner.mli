(** Deterministic per-operation instruction accounting — experiment
    E4.  Runs a single-threaded, perfectly interleaved schedule of
    writes and reads over a register instantiated on a
    {!Arc_mem.Counting} memory instance and reports RMW / plain-load
    averages per operation.

    The schedule parameter [reads_per_write] controls the fast-path
    frequency: with [r] reads by each reader between consecutive
    writes, an ARC reader pays RMWs only on the first of the [r]
    (the snapshot is stale exactly once), while RF pays one RMW on
    every read — the measured version of the paper's central
    argument. *)

(** The counter side of an {!Arc_mem.Counting} instance.  The caller
    must pass the counters of the very memory instance the register
    [R] was built over, or the measurements count someone else's
    operations. *)
module type COUNTERS = sig
  val counts : unit -> Arc_mem.Mem_intf.counts
  val reset : unit -> unit
end

type per_op = {
  rmw_per_read : float;
  rmw_per_write : float;
  atomic_loads_per_read : float;
  word_writes_per_write : float;
  reads : int;
  writes : int;
}

module Make (_ : COUNTERS) (_ : Arc_core.Register_intf.S) : sig
  val measure :
    readers:int -> size_words:int -> rounds:int -> reads_per_write:int -> per_op
  (** [rounds] write rounds; in each, one write is followed by
      [reads_per_write] reads from every reader. *)
end
