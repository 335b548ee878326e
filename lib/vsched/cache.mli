(** MESI-style cache-coherence model (directory flavour, M/S/I per
    agent and line) — the substrate behind experiment E9.

    The paper's performance argument is ultimately about coherence
    traffic (§1, §3.2): an RMW must hold its line exclusively, so
    every RMW by a different core bounces the synchronization line
    through invalidations, whereas a plain load of an unmodified line
    stays a local hit.  This model makes that measurable: each access
    by an agent updates the line's per-agent states, counts protocol
    messages, and returns a cost (in simulated steps) that the
    simulated-memory instance feeds to the scheduler.

    Simplifications, deliberate and documented: infinite capacity (no
    evictions — the registers' working sets are small), no E state
    (first read installs S), and atomic directory updates (the
    scheduler serializes accesses anyway).  None of these affect the
    *differences* between algorithms, which is what E9 reports. *)

type t

type stats = {
  reads : int;
  writes : int;  (** write-intent accesses (stores and RMWs) *)
  hits : int;
  fetches : int;  (** read misses serviced (GetS messages) *)
  rfos : int;  (** write misses / upgrades (GetX messages) *)
  invalidations : int;  (** remote copies invalidated by GetX *)
  writebacks : int;  (** M copies downgraded for another agent *)
}

val zero_stats : stats

val create : agents:int -> t
(** [agents] caches sharing the directory; agent ids are
    [0, agents). *)

val agents : t -> int

val init_agent : t -> int
(** The designated agent for accesses made outside any scheduler
    fiber (setup code): the last id. *)

val read : t -> agent:int -> line:int -> int
(** Perform a read access; returns its cost in simulated steps. *)

val write : t -> agent:int -> line:int -> int
(** Perform a write-intent access (store or RMW); returns its cost. *)

val stats : t -> stats
val reset_stats : t -> unit

(** Cost constants (simulated steps). *)

val hit_cost : int
val fetch_cost : int
val rfo_cost : int
