(** Fabric snapshot campaign on the virtual scheduler (ISSUE 6).

    Writer fibers round-robin over their statically owned shards
    stamping per-shard sequence numbers; scanner fibers take
    cross-shard snapshots
    ({!Arc_fabric.Fabric.Make.snapshot_certified}, or the collect-only
    negative control when [fab_atomic = false]), validate every shard
    word-by-word, and record one
    {!Arc_trace.Checker.snapshot_obs} per snapshot.  The returned
    per-shard write histories plus snapshot observations are exactly
    the input of {!Arc_trace.Checker.check_fabric} — apply it with
    {!check}. *)

type result = {
  fr_snapshots : int;  (** snapshots completed (direct + borrowed) *)
  fr_borrowed : int;  (** served from a writer's helping deposit *)
  fr_retries : int;  (** failed probe passes across all snapshots *)
  fr_deposits : int;  (** helping snapshots deposited by writers *)
  fr_writes : int;  (** shard writes published *)
  fr_torn : int;
      (** within-shard payload validation failures — zero even for the
          negative control (each shard value arrives through an atomic
          register read; the negative control's tear is cross-shard,
          visible only to the checker's window intersection) *)
  fr_steps : int;  (** simulated steps consumed *)
  fr_shard_writes : Arc_trace.History.t array;  (** per shard, seqs 1..k *)
  fr_snapshot_obs : Arc_trace.Checker.snapshot_obs list;
}

val check :
  result ->
  (Arc_trace.Checker.fabric_report, Arc_trace.Checker.fabric_violation) Stdlib.result
(** Judge the run: per-shard atomicity of every projected read plus
    cross-shard simultaneity of every snapshot vector. *)

module Make (_ : Arc_core.Register_intf.STAMPED) : sig
  val run : ?strategy:Arc_vsched.Strategy.t -> Config.fabric_sim -> result
  (** Default strategy: [Strategy.random ~seed:cfg.fab_seed].
      @raise Invalid_argument on nonsensical configurations.
      @raise Failure if a certified snapshot returns [Error] (no
      election runs, so that is a fabric bug). *)
end
