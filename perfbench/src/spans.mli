(** In-memory span recorder for the traced run.

    One recorder per domain, preallocated: recording a span allocates
    nothing.  Spans nest; when a span ends its self time (duration
    minus the time its child spans cover) and self-allocation (minor
    words, same subtraction) are added to per-name totals, and the
    span itself is kept for the Chrome trace until the raw buffer is
    full.  Span names are indices into the recorder's [names]. *)

type t

val create : names:string array -> tid:int -> raw:int -> t
(** [raw] bounds the spans kept for {!write_chrome}: the latest [raw]
    spans are kept; totals count every span. *)

val disabled : unit -> t
(** A recorder whose {!enter}/{!leave} do nothing. *)

val enter : t -> unit
val leave : t -> int -> unit
(** End the innermost open span and name it. *)

val enter_at : t -> ts:int -> words:int -> unit
val leave_at : t -> ts:int -> words:int -> int -> unit
(** {!enter}/{!leave} with explicit timestamps and allocation counters
    (what the clocked versions call; exposed for tests). *)

val current : unit -> t
(** This domain's installed recorder ({!disabled} by default) — how
    the traced substrate finds the recorder of the calling domain. *)

val install : t -> unit

val count : t -> int -> int
val total : t -> int -> int
val self : t -> int -> int
val alloc : t -> int -> int
val dropped : t -> int
(** Spans no longer kept for the trace. *)

(** {1 Per-name figures}

    Raw self times are what {!leave} measured.  The medians below also
    remove the tracer's own cost: every span costs [per_span] on the
    clock of the code around it, [inside] of which lies between its own
    two timestamps. *)

type overhead = { per_span : float; inside : float }

val no_overhead : overhead

val calibrate : unit -> overhead
(** Measure the cost of an empty span on this machine. *)

val median_self : ?overhead:overhead -> t list -> int -> float
(** Median self time of the spans named [name] over several recorders,
    less [inside] and [per_span - inside] per direct child (mean child
    count); 0 when no span has the name. *)

val median_total : ?overhead:overhead -> t list -> int -> float
(** Median duration, less [inside] and [per_span] per descendant. *)


val write_chrome : out_channel -> origin:int -> t list -> unit
(** Kept spans as Chrome trace-event JSON (one thread per recorder),
    with self time and self-allocation in each event's [args]. *)
