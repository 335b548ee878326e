(** Simulated shared memory: the {!Arc_mem.Mem_intf.S} instance whose
    every operation is a scheduling point of the enclosing
    {!Sched} run, priced by one of two cost rules.

    {b Unit costs} (no cache installed, the default).  Each plain
    access (load, store, one buffer word read or written, one word
    copied by [blit]) consumes one simulated step; each RMW consumes
    {!rmw_weight} steps, reflecting the paper's observation (§1, §3.2)
    that RMW instructions are substantially more expensive than plain
    loads on real interconnects (cache-line exclusivity, QPI
    messaging).  Simulated throughput — operations per step —
    therefore reproduces the paper's cost accounting: ARC's RMW-free
    read fast path is cheap, RF pays one RMW per read, Peterson pays
    per-word copies, and the spin-lock pays RMW retries.

    {b Coherence costs} (inside {!with_cache}).  Each access is
    charged what the installed MESI {!Cache} returns for the running
    fiber's agent: loads and word reads are reads, stores, word
    writes and every RMW are write-intent accesses, and a word copied
    by [blit] is a read of the source line plus a write of the
    destination line.  This is the substrate of experiment E9.

    Layout.  Every atomic owns a private cache line (as a careful
    implementation would pad it) and buffers span 8-word lines; lines
    are allocated whether or not a cache is installed.

    Buffers interleave at word granularity, so a simulated schedule
    can expose torn multi-word reads if an algorithm under test is
    buggy — the checker's job to catch. *)

val rmw_weight : int ref
(** Simulated cost of one RMW in plain-access units under unit costs.
    Default 4.  Read at each operation, so sweeps can vary it between
    runs (never during one). *)

val with_cache : Cache.t -> (unit -> 'a) -> 'a
(** [with_cache c f] runs [f] with [c] pricing every access, the line
    allocator restarted so consecutive experiments are independent.
    [c] is uninstalled when [f] returns or raises, so no later run is
    repriced.  Size [c] to the fiber count + 1: the extra agent owns
    accesses made outside any fiber (setup code).  One cache per
    process at a time: not reentrant, and not for concurrent runs on
    other domains. *)

include Arc_mem.Mem_intf.S
