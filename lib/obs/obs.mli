(** Wait-free telemetry: per-domain counter cells, read-outcome
    accounting, and metric exposition.

    Recording never blocks, never retries, and on the register's read
    fast path never executes an RMW: a {!Cell} is a plain single-writer
    [mutable int] on the host heap, incremented with an ordinary
    load + store.  Any domain may read a cell concurrently — a word-sized
    racy read cannot tear, so observers see a possibly-stale but
    never-corrupt count, and a happens-before edge (e.g.
    [Domain.join]) makes it exact.

    Cells live on the host heap, outside the register's memory
    substrate, so counting adds no scheduling points under the virtual
    scheduler (enabling telemetry changes no checker-visible history)
    and no operations to {!Arc_mem.Counting}'s ledger. *)

(** A single-writer counter word, a plain heap block with no cache-line
    isolation (DESIGN.md §6).  [incr]/[add]
    are owner-only (plain, unfenced); [get] is safe from any domain. *)
module Cell : sig
  type t = { mutable v : int }
  (** The word is exposed so register hot paths can compile the
      increment to a single inline store ([c.v <- c.v + 1]) — without
      flambda a cross-module [incr] call costs several ns, comparable
      to the fast-path read itself.  Treat the field as owner-only:
      one writer mutates, any thread may (racily) read. *)

  val create : unit -> t
  val incr : t -> unit
  val add : t -> int -> unit
  val get : t -> int
  val reset : t -> unit
end

(** A named family of per-domain cells — one cell per participant, so
    every writer owns its word and [value] sums them racily-but-safely. *)
module Group : sig
  type t

  val create : name:string -> help:string -> int -> t
  (** [create ~name ~help n] — [n] cells, one per domain; raises
      [Invalid_argument] if [n < 1]. *)

  val cell : t -> int -> Cell.t
  val domains : t -> int
  val name : t -> string
  val help : t -> string

  val value : t -> int
  (** Sum over all cells (racy snapshot; exact after owners join). *)

  val per_domain : t -> int array
end

(** Per-session read-outcome counters: reads resolve as fresh ([ok])
    or, on an admission refusal, served from the session's
    bounded-stale snapshot ([stale]).  Each class is a single-writer
    cell, safe to read while the owning session still runs (live soak
    summaries); campaign totals accumulate with {!merge_into} after the
    sessions are joined. *)
module Outcomes : sig
  type t

  val create : unit -> t
  val ok : t -> unit
  val stale : t -> unit
  val ok_count : t -> int
  val stale_count : t -> int

  val merge_into : src:t -> dst:t -> unit
  (** Add [src]'s counts into [dst].  [dst]'s cells are incremented by
      the caller, who must therefore own them; [src] is exact once its
      owner is joined. *)

  val pp : Format.formatter -> t -> unit
  (** [ok=N, stale=N]. *)
end

(** Per-scanner snapshot-outcome cells for the register fabric's
    cross-shard snapshot (ISSUE 6) — same single-writer cell
    discipline as {!Outcomes}.  [retries] counts failed probe passes,
    the quantity bounded by the fabric's wait-freedom argument (at
    most shards + 1 failed passes per snapshot), so soaks can watch it
    to falsify the bound. *)
module Scan : sig
  type t = {
    direct : Group.t;  (** clean double-collect snapshots *)
    borrowed : Group.t;  (** snapshots served from a helping deposit *)
    retries : Group.t;  (** failed probe passes (per-shard re-collects) *)
  }

  val create : scanners:int -> t

  val direct : t -> int -> Cell.t
  val borrowed : t -> int -> Cell.t
  val retries : t -> int -> Cell.t
  (** The given scanner's cell — resolve once, increment inline. *)

  val direct_count : t -> int
  val borrowed_count : t -> int
  val retry_count : t -> int
  (** Racy sums over scanners; exact after owners join. *)
end

(** {1 Metrics and exposition} *)

type kind = Counter | Gauge

type metric = {
  mname : string;
  mhelp : string;
  mkind : kind;
  labels : (string * string) list;
  value : float;
}

val counter :
  ?labels:(string * string) list -> ?help:string -> string -> int -> metric

val gauge :
  ?labels:(string * string) list -> ?help:string -> string -> float -> metric

val quantiles :
  ?help:string -> string -> Arc_util.Histogram.t -> int list -> metric list
(** [quantiles name h bps]: one [quantile]-labelled gauge per
    basis-point percentile of [bps] that [h]'s count supports
    ({!Arc_util.Histogram.percentile_opt}); none on an empty histogram. *)

val prometheus : metric list -> string
(** Prometheus text exposition (format 0.0.4): [# HELP]/[# TYPE] once
    per family, one sample line per metric, same-name samples grouped. *)

val json : metric list -> string
(** The same metrics as a JSON array (for merging into
    [results/BENCH_arc.json]). *)

(** Event counters for the reader admission gate (ISSUE 8), carrying
    the canonical [arc_admission_*_total] metric names.  Backed by
    [Atomic.t], not {!Cell}s: admission events are multi-writer (any
    arriving or departing thread, plus the eviction sweeper) and live
    on the connection-churn path, never the read fast path. *)
module Admission : sig
  type t

  val create : unit -> t
  val admitted : t -> unit
  val backpressured : t -> unit
  val departed : t -> unit
  val evicted : t -> unit
  val admitted_count : t -> int
  val backpressured_count : t -> int
  val departed_count : t -> int
  val evicted_count : t -> int

  val metrics : ?labels:(string * string) list -> t -> metric list
  (** The four [arc_admission_{admitted,backpressured,departed,
      evicted}_total] counters. *)
end
