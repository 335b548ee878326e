(** Fault-injecting memory substrate: wraps any {!Arc_mem.Mem_intf.S}
    instance and applies a {!Fault_plan.t} to the shared-memory
    accesses flowing through it, addressed by (fiber, per-class access
    index).  Register algorithms run under faults {e unmodified} —
    they are functors over the memory signature, and this is just one
    more instance.

    Intended use (see {!Campaign}): instantiate over
    {!Arc_vsched.Sim_mem}, [install] a plan, run a scenario on the
    virtual scheduler, then [drain] the injection statistics.  Faults
    only fire for accesses made from inside scheduler fibers; setup
    code (register creation) runs fault-free.

    Crash-stop is delivered by raising {!Fault_plan.Crashed} out of
    the faulted access (after the crash hook, if one is set); the
    harness must catch it at the fiber's top level.  Stalls call
    {!Arc_vsched.Sched.sleep}.  [Drop] skips only unit-returning
    accesses (stores, [incr]); value-returning accesses proceed
    normally under [Drop].  [Tear] applies to bulk copies:
    the first [at_word] words are copied, then the fiber either
    crashes ([silent:false]) or the operation silently reports
    success ([silent:true] — the unsound negative-control variant). *)

type stats = {
  crashes : (int * int) list;  (** (fiber, total-access index at crash) *)
  tears : (int * int) list;  (** (fiber, words completed before the tear) *)
  stalls : int;
  drops : int;
  cas_lies : int;  (** compare-and-sets that reported success untruthfully *)
}

val zero_stats : stats

module Make (M : Arc_mem.Mem_intf.S) : sig
  include
    Arc_mem.Mem_intf.S with type atomic = M.atomic and type buffer = M.buffer

  val install : Fault_plan.t -> unit
  (** Arm the injector: resets all per-fiber counters and statistics.
      Call before each scenario run. *)

  val drain : unit -> stats
  (** Disarm and return what fired.  Also clears state, so a
      forgotten [install] leaves the instance fault-free. *)

  val set_ambient_fiber : int option -> unit
  (** Fault identity for accesses made {e outside} any vsched fiber
      (a real OS process): [Some f] makes such accesses count — and
      fire plan events — as fiber [f]; [None] (the default) restores
      the original behaviour of leaving them fault-free.  For
      real-process negative controls (the crash campaign's split-vote
      arm); plans used under an ambient fiber must not contain
      [Stall] events, which need a scheduler to sleep on. *)

  val set_crash_hook : (unit -> unit) option -> unit
  (** Run [Some h] at every crash point, before {!Fault_plan.Crashed}
      is raised.  A real process whose hook kills it (a SIGKILL of its
      own pid) stops {e at} the faulted access, so no exception handler
      in the code under test runs; an in-process test's hook can
      inspect the shared state the crash leaves.  [None] (the default)
      only raises. *)
end
