(** The memory-operations substrate all register algorithms are
    written against.

    The paper's algorithms (§3.3) are specified in terms of a handful
    of machine-level facilities of TSO multiprocessors:

    - single-word {e synchronization variables} manipulated with plain
      loads/stores and with Read-Modify-Write (RMW) instructions
      ([AtomicAddAndFetch], [AtomicExchange], [AtomicInc], and — for
      the RF baseline — [FetchAndOr]);
    - {e multi-word buffers} holding register snapshots, accessed with
      plain per-word loads and stores.

    Abstracting those facilities behind this signature buys three
    instances from a single implementation of each algorithm:

    - {!Real_mem}: OCaml 5 [Atomic] + native [int array] buffers, for
      actual multi-domain execution and throughput measurement;
    - [Counting (M)]: any instance wrapped with per-domain operation
      counters, to reproduce the paper's "ARC executes fewer RMW
      instructions than RF" argument as measured data (experiment E4);
    - [Arc_vsched.Sim_mem]: simulated shared memory in which every
      shared access is a scheduling point of a deterministic
      cooperative scheduler, enabling schedule exploration, the
      atomicity checker, and the 4000-thread regime of Fig. 3.

    Memory-ordering note.  The paper assumes TSO and argues (§3.3, §4)
    that publishing a slot index through an RMW on [current] makes the
    slot contents visible to any reader that subsequently observes
    that index.  In OCaml's memory model the same discipline holds
    more strongly: all [Atomic] accesses are sequentially consistent,
    so the writer's plain buffer stores happen-before the
    [exchange] on [current], which happens-before a reader's
    [add_and_fetch]/[load] of [current], which happens-before the
    reader's plain buffer loads.  Plain buffer accesses therefore
    never race in ARC/RF/lock executions.  (Peterson's algorithm
    intentionally lets buffer reads race with writes and discards torn
    results; on OCaml [int array]s a racy per-word read is
    memory-safe and returns one of the written values, which is
    exactly the per-word atomicity Peterson assumes of single words.) *)

module type S = sig
  val name : string
  (** Instance name, used in reports ("real", "counting(real)", "sim"). *)

  (** {1 Synchronization variables (single word)} *)

  type atomic
  (** An int-valued single-word synchronization variable. *)

  val atomic : int -> atomic

  val atomic_contended : int -> atomic
  (** Like {!atomic}, but for {e hot} synchronization words that
      distinct threads hammer concurrently (ARC's [current] and the
      per-slot [r_start]/[r_end] counters, RF's presence word, lock
      and seqlock control words): the cell is allocated with
      cache-line isolation so that RMW traffic on it does not
      false-share a line with unrelated heap neighbours.  Semantics
      are identical to {!atomic} — instances that model per-access
      cost rather than layout (simulation, counting) may alias the
      two, so operation counts and scheduling points are unchanged. *)

  val atomic_contended_pair : int -> int -> atomic * atomic
  (** Two hot words that the {e same} operations always touch together
      (ARC's per-slot [r_start]/[r_end]), allocated co-located inside
      one isolated region: isolated from other slots' words — that is
      where cross-reader false sharing lives — but deliberately
      sharing a line with each other, so the pair costs one cache line
      rather than two.  Same aliasing freedom as
      {!atomic_contended}. *)

  val load : atomic -> int
  (** Plain (non-RMW) load.  Statement R1 of the paper's read path. *)

  val store : atomic -> int -> unit
  (** Plain (non-RMW) store.  Used for writer-private resets (W1a) and
      the freeze at W3. *)

  val exchange : atomic -> int -> int
  (** RMW: atomically replace the value, returning the old one
      ([AtomicExchange], statement W2). *)

  val add_and_fetch : atomic -> int -> int
  (** RMW: atomically add, returning the {e new} value
      ([AtomicAddAndFetch], statement R4). *)

  val fetch_and_add : atomic -> int -> int
  (** RMW: atomically add, returning the {e old} value. *)

  val incr : atomic -> unit
  (** RMW: atomic increment ([AtomicInc], statement R3). *)

  val compare_and_set : atomic -> int -> int -> bool
  (** RMW: CAS; true iff the swap happened. *)

  val fetch_and_or : atomic -> int -> int
  (** RMW: atomically OR a mask in, returning the old value.  Needed
      by the RF baseline.  Emulated with a CAS loop on instances whose
      platform lacks a native fetch-or. *)

  val fetch_and_and : atomic -> int -> int
  (** RMW: atomically AND a mask in, returning the old value. *)

  (** {1 Multi-word buffers} *)

  type buffer
  (** A fixed-capacity buffer of machine words holding one register
      snapshot.  Accesses are plain (non-RMW) word operations. *)

  val alloc : int -> buffer
  (** [alloc words] allocates a zero-filled buffer. *)

  val capacity : buffer -> int

  val write_words : buffer -> src:int array -> len:int -> unit
  (** Copy [src.(0..len-1)] into the buffer — the single content copy
      a register write performs.  A {e bulk} operation: hardware
      instances use one tight copy loop ({!Real_mem}: barrier-free
      per-word stores via {!Arc_util.Words.blit}, since [Array.blit]
      runs [caml_modify] per word into a major-heap array); simulated
      instances decompose it into per-word plain stores so every word
      remains a scheduling point and the counting instance still
      charges [len] word-writes.  [len = 0] is a valid no-op.
      @raise Invalid_argument if [len] is negative or exceeds source
      or capacity. *)

  val read_word : buffer -> int -> int
  (** Plain load of one word; the zero-copy read path. *)

  val read_words : buffer -> dst:int array -> len:int -> unit
  (** Bulk copy out (same bulk/per-word split as {!write_words}), for
      consumers that need a stable snapshot beyond their next read.
      @raise Invalid_argument if [len] is negative or exceeds
      destination or capacity. *)

  val blit : buffer -> buffer -> len:int -> unit
  (** [blit src dst ~len]: buffer-to-buffer copy — the
      intermediate-copy operation of copy-based algorithms (Peterson,
      seqlock).  ARC never calls it.  Bulk on hardware instances,
      per-word in simulation, like {!write_words}.
      @raise Invalid_argument if [len] is negative or exceeds either
      capacity. *)

  (** {1 Scheduling} *)

  val cede : unit -> unit
  (** A possible preemption point.  No-op on real hardware instances;
      a scheduler yield in simulation.  Algorithms call it inside
      unbounded or O(N) loops so simulated adversaries can interleave
      there. *)
end

(** Counters produced by the {!module:Counting} instrumentation. *)
type counts = {
  rmw : int;  (** exchange + add/fetch + incr + cas (incl. retries) + or + and *)
  atomic_load : int;
  atomic_store : int;
  word_read : int;
  word_write : int;
}

let zero_counts =
  { rmw = 0; atomic_load = 0; atomic_store = 0; word_read = 0; word_write = 0 }

let add_counts a b =
  {
    rmw = a.rmw + b.rmw;
    atomic_load = a.atomic_load + b.atomic_load;
    atomic_store = a.atomic_store + b.atomic_store;
    word_read = a.word_read + b.word_read;
    word_write = a.word_write + b.word_write;
  }

let pp_counts ppf c =
  Format.fprintf ppf
    "@[<h>rmw=%d, atomic_load=%d, atomic_store=%d, word_read=%d, word_write=%d@]"
    c.rmw c.atomic_load c.atomic_store c.word_read c.word_write
