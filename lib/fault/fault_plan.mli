(** Deterministic fault plans — the failure-side counterpart of
    {!Arc_vsched.Strategy}.

    A plan is a finite set of fault events, each addressed at a
    {e protocol step} of one fiber: "the [nth] shared-memory access
    (of a given class) this fiber performs".  Because fibers over
    {!Arc_vsched.Sim_mem} touch shared memory deterministically for a
    fixed schedule, a (plan, strategy-seed) pair identifies one faulty
    execution exactly — fault schedules are explorable with
    {!Arc_vsched.Explore} and replayable from a seed, like ordinary
    schedules.

    Plans are injected by wrapping any memory substrate with
    {!Fault_mem.Make}, so every register algorithm can run under
    faults without modification.

    Two of the actions are {e sound} process/platform faults that a
    crash-tolerant register must survive:
    - {!crash} — crash-stop: the fiber stops executing forever
      (raises {!Crashed}, which the harness catches at the fiber's
      top level).  A reader crashed between its R3/R4 protocol steps
      leaves [r_start <> r_end] frozen on its slot — the scenario
      ISSUE 2 hardens against.
    - {!stall} — the fiber goes quiet for a number of simulated steps
      (hypervisor steal, page fault, long de-schedule) and resumes.

    The other two are {e unsound} faults that corrupt the algorithm's
    own behaviour; they exist to build negative controls proving the
    crash-aware checker is not vacuous:
    - {!tear} with [silent:true] — a bulk copy writes only its first
      [at_word] words and {e reports success}; a register publishing
      such a slot serves torn snapshots and must be convicted.
      ([silent:false] crashes mid-copy instead — a sound fault: the
      torn slot is never published by a correct algorithm.)
    - {!drop} — a unit-returning operation (an [incr] or [store]) is
      silently skipped: a lost release, breaking slot accounting in a
      way the presence-ledger auditor must catch.
    - {!cas_lie} — a compare-and-set {e reports success without
      applying}: the shared word is untouched but the caller proceeds
      as a winner.  This is the split-vote forcer for the writer
      election's negative control ({!Arc_resilience.Election}): a
      candidate whose vote CAS lies believes it won a term someone
      else actually holds, and a history written under that belief
      must be convicted by the atomicity checker. *)

exception Crashed
(** Raised by {!Fault_mem} at a [Crash] (or non-silent [Tear]) point.
    Harness fiber bodies catch it at top level: the fiber simply stops
    (crash-stop semantics); it must never escape to the scheduler. *)

type op_class = [ `Load | `Store | `Rmw | `Bulk ]
(** Classes of shared-memory access: plain atomic loads, plain atomic
    stores, read-modify-writes, and bulk buffer copies
    ([write_words] / [read_words] / [blit]).  Single-word buffer reads
    count as [`Load]. *)

type kind = [ `Any | op_class ]

type action =
  | Crash
  | Stall of int  (** steps to stay off the runnable set *)
  | Tear of { at_word : int; silent : bool }
  | Drop
  | Cas_lie  (** CAS reports success without applying (unsound) *)

type point = { fiber : int; kind : kind; nth : int }
(** Fires at the fiber's [nth] access of class [kind] (1-based;
    [`Any] counts every class). *)

type event = { point : point; action : action }
type t

val empty : t

val crash : ?kind:kind -> fiber:int -> at_access:int -> t -> t
(** [at_access] counts the fiber's accesses of class [kind] (default
    [`Any]: every access), so [~kind:`Rmw ~at_access:1] names the
    fiber's first read-modify-write. *)

val stall : fiber:int -> at_access:int -> steps:int -> t -> t

val tear : fiber:int -> at_copy:int -> at_word:int -> silent:bool -> t -> t
(** [at_copy] is the fiber's nth {e bulk} operation; [at_word] how
    many words of it complete. *)

val drop : fiber:int -> kind:[ `Store | `Rmw ] -> nth:int -> t -> t

val cas_lie : fiber:int -> nth:int -> t -> t
(** [nth] is the fiber's nth {e rmw} access; if it is a
    [compare_and_set], it reports success without storing.  (Any other
    rmw proceeds normally — the event is still consumed.) *)

val class_name : kind -> string
(** ["any"], ["load"], ["store"], ["rmw"] or ["bulk"]. *)

val events : t -> event list
val size : t -> int
val pp : Format.formatter -> t -> unit
val to_string : t -> string
