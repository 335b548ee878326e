(** Executable form of the paper's correctness criteria (§3.1, §4).

    For a single-writer register, writes are totally ordered by their
    sequence numbers, which makes checking a recorded history
    tractable (O(n log n)) without any linearization search:

    - {b well-formedness}: writer operations are sequential and their
      sequence numbers are exactly 1..k in order; every read returns
      an existing sequence number;
    - {b regularity} (Theorem 4.3 / the no-past property): a read
      must return either the last write that completed before it
      started, or some write concurrent with it — formally, its value
      [v] must satisfy [low r <= v <= high r] where [low r] is the
      largest seq whose write returned strictly before [r] was
      invoked and [high r] the largest seq whose write was invoked
      strictly before [r] returned;
    - {b atomicity} (Criterion 1 / Theorem 4.4): additionally no
      new-old inversion — for reads [r1 → r2] (r1 returned strictly
      before r2 was invoked, across {e all} readers, or r1 is the same
      thread's earlier read), [seq r2 >= seq r1].

    Events of different threads with equal timestamps are treated as
    concurrent, which can only make the check more permissive, never
    report a false violation.  One thread's operations are sequential,
    so its reads are ordered by program order even when the next is
    stamped at the instant the previous one returned. *)

type violation =
  | Malformed of string
  | Stale_read of { read : History.event; low : int }
      (** regularity broken: returned seq < newest completed write *)
  | Future_read of { read : History.event; high : int }
      (** returned a seq not yet being written *)
  | New_old_inversion of { earlier : History.event; later : History.event }

val pp_violation : Format.formatter -> violation -> unit

type report = {
  reads_checked : int;
  writes_checked : int;
  fast_path_candidates : int;
      (** reads returning the same seq as the previous read of the
          same thread — an ARC fast-path frequency indicator *)
}

val check : History.t -> (report, violation) result
(** Full check: well-formedness, regularity, atomicity.  Returns the
    first violation found (events included for diagnosis). *)

val check_regular_only : History.t -> (report, violation) result
(** Same but skipping the new-old-inversion pass — used by tests that
    demonstrate the checker can tell regular-but-not-atomic histories
    apart. *)

(** {2 Crash-aware checking (ISSUE 2)}

    Under crash-stop faults, an operation in flight when its thread
    crashed never returns and is never recorded — which is already the
    right treatment for {e reads} (an unreturned read constrains
    nothing).  The single writer is different: its pending write may
    have published (crash after the exchange) or not (crash during the
    copy), and reads by surviving readers are correct in either case.
    {!check_crash} accepts a history iff one of the two completions —
    the write vanished, or the write took effect with an open-ended
    completion time — satisfies the full atomicity check, and reports
    which one did. *)

type crash_outcome = No_crash | Vanished | Took_effect

val crash_outcome_name : crash_outcome -> string

val check_crash :
  ?pending_write:int * int ->
  ?fence:int ->
  History.t ->
  (report * crash_outcome, violation) result
(** [check_crash ~pending_write:(seq, invoked) h] — [seq] is the
    crashed writer's unreturned sequence number and [invoked] its
    invocation time.  The recorded writes may stop at [seq - 1], or —
    when a promoted successor continued the history — run past it
    with exactly [seq] missing: the took-effect candidate fills that
    single gap, so a post-crash history where the successor took over
    at [seq + 1] is judged against both completions like any other.
    (A successor that instead {e reused} [seq] because it observed the
    pending write never published needs no [pending_write] at all —
    the recorded writes are already contiguous.)  Without
    [pending_write] this is {!check}.

    [?fence] (ISSUE 3) tightens the took-effect completion for
    epoch-fenced failover: the pending write can only have been
    published before the supervisor's fence, so its candidate
    completion time is [max fence invoked] rather than open-ended —
    required as soon as a promoted successor's writes continue the
    history past the crash, and strictly stronger (a fenced-out late
    publish that somehow took effect after the fence is convicted
    instead of forgiven). *)

(** {2 Cross-shard snapshot checking (ISSUE 6)}

    A register-fabric snapshot claims its whole vector of shard values
    was simultaneously published at one instant inside the snapshot's
    interval.  {!check_fabric} judges recorded fabric histories in two
    passes: every snapshot is projected onto each shard as an ordinary
    read and run through the full single-register {!check} (per-shard
    regularity and new-old inversions come free), then each snapshot's
    per-shard validity windows are intersected — value [v] of shard
    [i] can have been current no earlier than write [v]'s invocation
    and no later than write [v+1]'s return (maximally permissive, so a
    conviction is never a timestamping artifact).  An empty
    intersection means the vector never coexisted: a torn snapshot. *)

type snapshot_obs = {
  sthread : int;
  invoked : int;
  returned : int;
  observed : int array;  (** per shard: seq of the value in the vector *)
  sepoch : int;
      (** the configuration epoch the snapshot was certified under
          ({!Arc_fabric.Fabric.Make.snap_epoch}); [0] = uncertified,
          exempt from the reign pass *)
}

type reign = { rshard : int; first_seq : int; config : int }
(** A reign claim (ISSUE 9): shard [rshard]'s writes from seq
    [first_seq] onward — until a later claim for the same shard takes
    over — were published under configuration epoch [config].  Record
    one per leadership interval: the original leader's and one per
    elected successor. *)

type fabric_violation =
  | Shard_violation of { shard : int; violation : violation }
  | Torn_snapshot of {
      snapshot : snapshot_obs;
      fresh_shard : int;  (** its observed write was invoked last *)
      stale_shard : int;  (** its observed value died first *)
      earliest : int;  (** earliest instant the vector could exist *)
      latest : int;  (** latest instant it could still exist *)
    }
  | Cross_reign of {
      snapshot : snapshot_obs;
      shard : int;  (** the shard whose observed value postdates the epoch *)
      config : int;  (** the reign that published it ([> sepoch]) *)
    }

val pp_fabric_violation : Format.formatter -> fabric_violation -> unit

type fabric_report = {
  fshards : int;
  snapshots_checked : int;
  shard_reports : report array;
}

val check_fabric :
  ?reigns:reign list ->
  writes:History.t array ->
  snapshots:snapshot_obs list ->
  unit ->
  (fabric_report, fabric_violation) result
(** [check_fabric ~writes ~snapshots ()] — [writes.(i)] holds shard
    [i]'s write events (per-shard seqs 1..k, writer-sequential, as
    {!check} requires); each snapshot contributes one projected read
    per shard plus one window-intersection test.

    [?reigns] adds the reign pass: every snapshot certified under
    epoch [sepoch > 0] must draw each shard value from a reign
    [<= sepoch] (the reign of a value is the largest-[config] claim
    covering its seq); a violation is {!Cross_reign}.  Uncertified
    snapshots ([sepoch = 0]) are exempt, and shards with no claims
    default to reign 0 (never convicting).
    @raise Invalid_argument if there are no shards or a snapshot's
    [observed] length disagrees with the shard count. *)

(** {2 Bounded staleness of degraded reads (ISSUE 3)}

    Reads an admission refusal serves from a session's last-known-good
    snapshot are excluded from the atomic history by design; their
    contract is instead that the served value lags the register by at
    most a declared number of writes at serve time. *)

type stale_serve = { thread : int; seq : int; at : int }
(** One degraded serve: [thread] returned the snapshot carrying write
    [seq] at time [at] (same clock as the history). *)

type staleness_violation = {
  serve : stale_serve;
  completed : int;  (** writes completed before the serve *)
  bound : int;
}

val pp_staleness_violation : Format.formatter -> staleness_violation -> unit

val check_bounded_staleness :
  History.t -> bound:int -> stale_serve list -> (int, staleness_violation) result
(** [check_bounded_staleness h ~bound serves] verifies every serve
    returned a seq no older than [bound] writes behind the writes of
    [h] completed at its serve time; [Ok n] is the number of serves
    checked.
    @raise Invalid_argument if [bound < 0]. *)
