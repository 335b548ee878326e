(** Run configurations and results shared by the runners.

    [workload] mirrors the paper's two experimental modes plus a
    checking mode:
    - [Hold]: the hold-model of §5 — operations do nothing but run
      the register algorithm (writes copy a fixed buffer, reads touch
      only the snapshot pointer), maximizing contention;
    - [Processing]: writes generate fresh data, reads scan the whole
      snapshot (§5's second experiment set);
    - [Verify]: like [Processing] but every snapshot is validated
      word-by-word and operations can be recorded into a history for
      the atomicity checker — the correctness-stress mode. *)

type workload = Arc_fault.Fibers.workload = Hold | Processing | Verify

let workload_name = function
  | Hold -> "hold"
  | Processing -> "processing"
  | Verify -> "verify"

(** Hypervisor CPU-steal injection for real runs (DESIGN.md §2): with
    [probability], an operation is followed — or, on the reader side,
    interrupted mid-snapshot-access — by a [pause_us] sleep that
    yields the core, modelling the vCPU being scheduled out.  The
    simulator's {!Arc_vsched.Strategy.steal} provides the
    anywhere-preemption version. *)
type steal = { probability : float; pause_us : float }

(** Watchdog for real runs: after the stop flag is raised, the
    coordinator polls per-thread completion flags every [poll_s]
    seconds; threads that have not finished within [grace_s] make the
    run fail with a per-thread progress diagnostic
    ({!Real_runner.Hung}) instead of blocking the join forever — a
    hung register operation turns into an explained test failure, not
    a CI timeout. *)
type watchdog = { poll_s : float; grace_s : float }

let default_watchdog = { poll_s = 0.05; grace_s = 10. }

type real = {
  readers : int;
  size_words : int;
  duration_s : float;
  workload : workload;
  steal : steal option;
  record : int;  (** events recorded per thread; 0 disables recording *)
  seed : int;
  parallelism : [ `Domains | `Threads ];
      (** [`Domains]: one domain per thread (true parallelism, bounded
          by the runtime's domain limit).  [`Threads]: systhreads on
          one domain — pure time-sharing, the Fig. 3 regime, feasible
          for thousands of threads. *)
  watchdog : watchdog option;
      (** [None] restores the unguarded blocking join. *)
}

let default_real =
  {
    readers = 3;
    size_words = 512;
    duration_s = 0.2;
    workload = Hold;
    steal = None;
    record = 0;
    seed = 42;
    parallelism = `Domains;
    watchdog = Some default_watchdog;
  }

type sim = {
  sim_readers : int;
  sim_size_words : int;
  max_steps : int;
  sim_workload : workload;
  sim_record : int;
  sim_seed : int;
}

let default_sim =
  {
    sim_readers = 3;
    sim_size_words = 64;
    max_steps = 200_000;
    sim_workload = Hold;
    sim_record = 0;
    sim_seed = 42;
  }

(** Fabric snapshot campaign under the simulator (ISSUE 6): a sharded
    register fabric with [fab_writers] writer fibers round-robining
    over their owned shards and [fab_scanners] fibers taking
    cross-shard snapshots, every snapshot validated word-by-word per
    shard and recorded for {!Arc_trace.Checker.check_fabric}.
    [fab_atomic = false] selects the fabric's collect-only negative
    control, whose torn vectors the checker must convict. *)
type fabric_sim = {
  fab_shards : int;
  fab_writers : int;
  fab_scanners : int;
  fab_size_words : int;
  fab_steps : int;
  fab_seed : int;
  fab_atomic : bool;
}

let default_fabric_sim =
  {
    fab_shards = 4;
    fab_writers = 2;
    fab_scanners = 2;
    fab_size_words = 32;
    fab_steps = 60_000;
    fab_seed = 42;
    fab_atomic = true;
  }

type result = {
  reads : int;
  writes : int;
  duration : float;  (** seconds (real) or simulated steps (sim) *)
  total_throughput : float;
  read_throughput : float;
  write_throughput : float;
  torn : int;  (** payload validation failures observed (Verify mode) *)
  history : Arc_trace.History.t option;
  dropped_events : int;
}

let mk_result ~reads ~writes ~duration ~torn ~history ~dropped_events =
  let per x = if duration > 0. then float_of_int x /. duration else 0. in
  {
    reads;
    writes;
    duration;
    total_throughput = per (reads + writes);
    read_throughput = per reads;
    write_throughput = per writes;
    torn;
    history;
    dropped_events;
  }
