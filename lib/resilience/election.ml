(* Writer succession for one seat: the heartbeat lease, the term-voted
   election, the configuration epoch and the epoch-fenced writer
   handle, in one record.

   ARC is a (1, N) register: its correctness assumes exactly one
   writer.  Across a failover that takes three steps, all of which
   live here:

   - {b Detection.}  The incumbent re-arms a heartbeat word after
     every write ({!heartbeat}); a standby polls {!expired} and, once
     the incumbent has been silent past a full lease, campaigns.
     Clocks are caller-supplied, so the same seat runs on simulated
     steps (vsched) and on a mapping's shared clock.  Detection is
     approximate — a slow-but-alive writer can be deposed (a
     {e spurious} failover) — and that is safe: the winning campaign
     fences before anything else, so the deposed writer's next write
     raises [Fenced_out] and it retires.  A handle whose epoch is no
     longer current cannot heartbeat: a zombie must not re-arm the
     lease it lost.

   - {b Arbitration.}  With several hot standbys, every one of them
     sees the same missed heartbeats.  The decision point is one word,
     [term ∥ vote], packed by {!Arc_util.Term_vote} under the same
     discipline as the register's [current] word and changed {e only}
     by a seq-cst compare-and-set.  A candidate reads the word,
     computes [succ_term ~candidate] and CASes: for any observed state
     there is exactly one winning transition, so two candidates racing
     from a common snapshot cannot both win — Raft's "at most one
     leader per term" collapsed to one instruction, which is all a
     single-machine, shared-memory deployment needs.  Losing is a
     normal outcome ([Lost]): the loser goes back to monitoring.

   - {b Fencing.}  The writer role is a revocable handle carrying the
     generation it was issued under.  Bumping the seat's fence epoch
     fences every older handle, and the epoch is re-validated twice
     per write: at entry, which catches a writer that was paused past
     its lease {e between} writes, and inside
     {!Register_intf.FENCEABLE.write_guarded}'s guard, after the
     content copy and immediately before the publish exchange, which
     catches a writer deposed {e mid-write} with nothing published.
     The residual window is the single publish instruction after the
     guard's load; the lease closes it, since it is chosen larger than
     any mid-operation pause the deployment can suffer (DESIGN.md §6c;
     the soak draws mid-write stalls strictly below the lease).

   Every completed handoff also bumps the {b configuration epoch}
   shared by a fabric's seats; certified snapshots bracket their probe
   window with two loads of it, so a vector never splices two reigns
   (DESIGN.md §8b).  A single register never reads the word.

   A seat is built over fresh heap cells ({!create}: one process's
   domains or fibers) or over caller-supplied cells ({!of_cells}): a
   writer seat of a shm mapping's reign table
   ({!Arc_shm.Shm_mem.shard_election_cell}, [shard_epoch_cell],
   [config_epoch_cell]) plus a raw heartbeat word, which arbitrates
   between OS processes and survives kill-9 — handles issued before a
   SIGKILL are already fenced when the survivor re-issues.

   Winning the vote does not make it safe to write; it makes it safe
   to {e fence}.  [campaign] orders the takeover as

     vote CAS → prefence → takeover (recovery) → config bump → issue

   Fence-after-vote is safe because epoch bumps are serialized by the
   vote: only the unique winner of a term prefences, so the epoch
   advances in term order and a prefence can never revoke a {e newer}
   winner's handle.  Prefencing {e before} takeover closes the zombie
   window: the deposed leader is convictable from the instant the
   successor exists in any capacity, while the wreckage is still being
   inspected.  The config bump precedes [issue], so no publish of the
   new reign precedes the bump a certified snapshot keys on.  [issue]
   comes last because the seat recovery of shared mappings
   ({!Arc_shm.Shm_mem.recover}) bumps the same fence epoch cell —
   issuing earlier would fence the winner's own fresh handle.  The
   winner then re-arms the lease. *)

module Term_vote = Arc_util.Term_vote
module Obs = Arc_obs.Obs
module Reign_tel = Arc_fabric.Fabric.Reign_tel

exception
  Fenced_out of {
    writer_epoch : int;
    current_epoch : int;
  }

let () =
  Printexc.register_printer (function
    | Fenced_out { writer_epoch; current_epoch } ->
      Some
        (Printf.sprintf "Fenced_out (writer epoch %d, current epoch %d)"
           writer_epoch current_epoch)
    | _ -> None)

(* Process-cumulative election telemetry, across every [Make]
   instantiation (same pattern as {!Arc_shm.Shm_mem}'s recovery
   counters).  Election steps run on whichever thread campaigns, and
   fenced writes on the (one) thread that held the handle; campaigns
   are serialized per process by construction (a process fields one
   candidate), keeping the single-writer cell discipline.  Won
   elections are counted by the fabric's handoff cell. *)
module Tel = struct
  let terms_started = Obs.Cell.create ()
  let votes_granted = Obs.Cell.create ()
  let zombie_fences = Obs.Cell.create ()
end

let metrics () =
  [
    Obs.counter "arc_election_terms_started_total"
      ~help:"Vote attempts: terms a local candidate tried to open"
      (Obs.Cell.get Tel.terms_started);
    Obs.counter "arc_election_votes_granted_total"
      ~help:"Vote CASes that succeeded (terms won locally)"
      (Obs.Cell.get Tel.votes_granted);
    Obs.counter "arc_election_elections_won_total"
      ~help:"Elections completed through takeover to an issued writer"
      (Atomic.get Reign_tel.handoffs);
    Obs.counter "arc_election_zombie_fences_total"
      ~help:"Writes by deposed leaders aborted by the epoch fence"
      (Obs.Cell.get Tel.zombie_fences);
  ]

module Make (R : Arc_core.Register_intf.FENCEABLE) = struct
  module M = R.Mem

  type t = {
    reg : R.t;
    word : M.atomic;  (* [term ∥ vote]; CAS-only *)
    epoch : M.atomic;  (* writer-fence epoch; fetch-and-add only *)
    config : M.atomic;  (* configuration epoch; fetch-and-add only *)
    hb : M.atomic;  (* [now] at the last accepted heartbeat *)
    now : unit -> int;
    lease : int;
  }

  (* The caller owns the cells' semantics: never share them across
     registers, and start [config] at 1 (a reign table's does). *)
  let of_cells reg ~word ~epoch ~config ~hb ~now ~lease =
    if lease < 1 then invalid_arg (Printf.sprintf "Election: lease = %d" lease);
    { reg; word; epoch; config; hb; now; lease }

  let create ~readers ~capacity ~init ~now ~lease =
    of_cells
      (R.create ~readers ~capacity ~init)
      ~word:(M.atomic_contended Term_vote.none)
      ~epoch:(M.atomic_contended 0) ~config:(M.atomic_contended 1)
      ~hb:(M.atomic_contended (now ()))
      ~now ~lease

  let register t = t.reg
  let reader t i = R.reader t.reg i

  let observe t = M.load t.word
  let term t = Term_vote.term (observe t)
  let leader t = Term_vote.vote (observe t)
  let config_at t = M.load t.config
  let epoch t = M.load t.epoch

  (* The bare arbitration step: try to open the term after [from] with
     [candidate]'s name on it (any id up to [Term_vote.max_candidate]).
     Returns the term now held on success.  [?from] lets a harness
     make several candidates race from a {e common} snapshot — the
     exactly-one-winner guarantee is per observed state, so candidates
     that each re-read the word could win consecutive terms instead of
     racing for one. *)
  let request_vote ?from t ~candidate =
    let from = match from with Some w -> w | None -> M.load t.word in
    let next = Term_vote.succ_term from ~candidate in
    Obs.Cell.incr Tel.terms_started;
    if M.compare_and_set t.word from next then begin
      Obs.Cell.incr Tel.votes_granted;
      Some (Term_vote.term next)
    end
    else None

  (* Record the handoff: one wait-free add (bumps are counted, not
     exchanged), returning the new epoch.  The gauge takes the max:
     threads of one process may hand off different seats. *)
  let bump t =
    let e = 1 + M.fetch_and_add t.config 1 in
    Atomic.incr Reign_tel.handoffs;
    let rec raise_to () =
      let cur = Atomic.get Reign_tel.epoch in
      if e > cur && not (Atomic.compare_and_set Reign_tel.epoch cur e) then
        raise_to ()
    in
    raise_to ();
    e

  (** A revocable writer handle: valid while its generation matches
      the seat's fence epoch. *)
  type writer = { t : t; gen : int }

  (* Outside tests, [prefence] and [issue] run only inside [campaign],
     so every handle in service was voted for.  [prefence] bumps the
     epoch WITHOUT issuing: every outstanding handle is fenced and
     nobody holds the new generation. *)
  let issue t = { t; gen = 1 + M.fetch_and_add t.epoch 1 }
  let prefence t = ignore (M.fetch_and_add t.epoch 1)

  let current w = M.load w.t.epoch = w.gen

  let reject w current_epoch =
    Obs.Cell.incr Tel.zombie_fences;
    raise (Fenced_out { writer_epoch = w.gen; current_epoch })

  let write w ~src ~len =
    let e = M.load w.t.epoch in
    if e <> w.gen then reject w e;
    R.write_guarded w.t.reg ~src ~len ~guard:(fun () ->
        let e = M.load w.t.epoch in
        if e <> w.gen then reject w e)

  let heartbeat w = if current w then M.store w.t.hb (w.t.now ())
  let expired t = t.now () - M.load t.hb > t.lease

  type outcome =
    | Won of {
        writer : writer;  (* issued after fence + takeover + bump *)
        term : int;  (* the term this writer reigns under *)
        recovered : int;  (* whatever [takeover] reported (e.g. convictions) *)
        config : int;
            (* THIS handoff's bump value, where the reign begins.  A
               later load may include other seats' bumps, and a claim
               recorded too high would convict innocent snapshots. *)
        at : int;
            (* [now] when the lease was re-armed, after the issue: every
               write the deposed writer published precedes it — the
               fence [Checker.check_crash ?fence] needs. *)
      }
    | Lost of {
        term : int;  (* term observed after losing *)
        winner : int option;  (* who holds it, if anyone *)
      }

  (* vote → prefence → takeover → config bump → issue → re-arm the
     lease; see the header for why this order is the safe one.
     [takeover] runs with every pre-election handle already fenced and
     no handle of its own extant — the one moment inspection of the
     dead leader's state cannot race a publish from either side.  If it
     raises, nothing is bumped or issued. *)
  let campaign ?from ?(takeover = fun () -> 0) t ~candidate =
    match request_vote ?from t ~candidate with
    | Some term ->
      prefence t;
      let recovered = takeover () in
      let config = bump t in
      let writer = issue t in
      let at = t.now () in
      M.store t.hb at;
      Won { writer; term; recovered; config; at }
    | None ->
      let now = M.load t.word in
      Lost { term = Term_vote.term now; winner = Term_vote.vote now }
end
