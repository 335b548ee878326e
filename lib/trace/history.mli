(** Histories of register operations, in the §3.1 sense: each
    operation is an interval [⟨invoked, returned⟩] on a global clock
    (nanoseconds for real runs, simulated steps for scheduler runs)
    carrying the sequence number of the register value it wrote or
    returned.

    Values are identified by the writer's sequence number: write k
    publishes value k (k ≥ 1), and 0 identifies the initial value, so
    checking never depends on payload contents — workloads stamp the
    sequence number into the payload (see {!Arc_workload.Payload}) and
    the read side extracts it. *)

type kind = Read | Write

type event = {
  kind : kind;
  thread : int;  (** writer thread or reader identity *)
  seq : int;  (** value written / value observed *)
  invoked : int;
  returned : int;
}

val event : kind -> thread:int -> seq:int -> invoked:int -> returned:int -> event
(** @raise Invalid_argument if [returned < invoked] or [seq < 0]. *)

val pp_event : Format.formatter -> event -> unit

type t
(** An immutable history. *)

val of_events : event list -> t
(** Builds a history; events need not be sorted. *)

val events : t -> event list
(** All events, sorted by invocation time. *)

val reads : t -> event list
val writes : t -> event list
(** Writes sorted by sequence number. *)

val size : t -> int

val dump : ?meta:(string * int) list -> t -> string -> unit
(** Write the history to a line-oriented text file, prefixed by
    [meta] key/value context lines — crash harnesses persist the
    recovery fence and the pending write here, so a history can be
    re-judged by a process that saw none of the run ([arc-check
    --history]).
    @raise Invalid_argument on a meta key containing whitespace.
    @raise Sys_error on filesystem failure. *)

val load : string -> t * (string * int) list
(** Read back a {!dump}ed history and its meta entries (in file
    order).
    @raise Failure with file/line diagnostics on malformed input.
    @raise Sys_error on filesystem failure. *)

(** Mutable per-thread recorder with preallocated storage, so
    recording perturbs measured runs as little as possible.  Each
    thread must only append to its own index; merging happens after
    the threads are joined. *)
module Recorder : sig
  type recorder

  val create : threads:int -> capacity:int -> recorder
  (** [capacity] events per thread; further events are dropped and
      counted. *)

  val record :
    recorder -> thread:int -> kind -> seq:int -> invoked:int -> returned:int -> unit

  val reset : recorder -> unit
  (** Forget every event and drop, keeping the storage. *)

  val dropped : recorder -> int
  val history : recorder -> t
end
