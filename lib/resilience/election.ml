(* Term-voted writer succession under one configuration epoch.

   The supervision layer's lease ({!Supervisor}) answers "has the
   leader failed?" — failure {e detection}.  It cannot answer "who
   takes over?": with several hot standbys, every one of them observes
   the same missed heartbeats and every one of them believes it should
   promote.  Failure {e arbitration} needs a shared, crash-surviving
   decision point.

   That decision point is one word: [term ∥ vote], packed by
   {!Arc_util.Term_vote} under the same discipline as the register's
   [current] word ({!Arc_util.Packed}), and manipulated {e only} by a
   seq-cst compare-and-set through the memory substrate.  A candidate
   reads the word, computes [succ_term ~candidate], and CASes.  CAS
   atomicity is the whole protocol: for any given observed state there
   is exactly one winning transition, so two candidates racing from a
   common snapshot cannot both win — this is Raft's "at most one
   leader per term" collapsed to a single instruction, which is all a
   single-machine, shared-memory deployment needs (no log comparison,
   no quorum: the word {e is} the quorum of one).

   Backed by heap cells ([atomic_contended]) the election arbitrates
   between domains of one process; backed by a writer seat of a shm
   mapping's reign table ({!Arc_shm.Shm_mem.shard_election_cell}; a
   single register is a one-seat table) it arbitrates between OS
   processes and survives kill-9 — exactly as the epoch fence does
   with the seat's [shard_epoch_cell].

   Every completed handoff also bumps the {b configuration epoch}
   shared by a fabric's seats; certified snapshots bracket their probe
   window with two loads of it, so a vector never splices two reigns
   (DESIGN.md §8b).  A single register never reads the word.

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
   issuing earlier would fence the winner's own fresh handle. *)

module Term_vote = Arc_util.Term_vote
module Obs = Arc_obs.Obs
module Reign_tel = Arc_fabric.Fabric.Reign_tel

(* Process-cumulative election telemetry, across every [Make]
   instantiation (same pattern as {!Arc_shm.Shm_mem}'s recovery
   counters).  Election steps run on whichever thread campaigns;
   campaigns are serialized per process by construction (a process
   fields one candidate), keeping the single-writer cell discipline.
   Won elections are counted by the fabric's handoff cell. *)
module Tel = struct
  let terms_started = Obs.Cell.create ()
  let votes_granted = Obs.Cell.create ()
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
      (Obs.Cell.get Fenced.zombie_fences);
  ]

module Make (R : Arc_core.Register_intf.FENCEABLE) = struct
  module M = R.Mem
  module Fenced_reg = Fenced.Make (R)

  type t = {
    word : M.atomic;  (* [term ∥ vote]; CAS-only *)
    config : M.atomic;  (* configuration epoch; fetch-and-add only *)
    candidate : int;
    freg : Fenced_reg.t;
  }

  (* A shm seat passes {!Arc_shm.Shm_mem.shard_election_cell} and the
     mapping's [config_epoch_cell] (which starts at 1). *)
  let create ~word ~config ~candidate freg =
    if candidate < 0 || candidate > Term_vote.max_candidate then
      invalid_arg
        (Printf.sprintf "Election.create: candidate %d out of range [0, %d]"
           candidate Term_vote.max_candidate);
    { word; config; candidate; freg }

  let fenced t = t.freg

  let observe t = M.load t.word
  let term t = Term_vote.term (observe t)
  let leader t = Term_vote.vote (observe t)
  let config_at t = M.load t.config

  (* The bare arbitration step: try to open the term after [from] with
     this candidate's name on it.  Returns the term now held on
     success.  [?from] lets a harness make several candidates race
     from a {e common} snapshot — the exactly-one-winner guarantee is
     per observed state, so candidates that each re-read the word
     could win consecutive terms instead of racing for one. *)
  let request_vote ?from t =
    let from = match from with Some w -> w | None -> M.load t.word in
    let next = Term_vote.succ_term from ~candidate:t.candidate in
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

  type outcome =
    | Won of {
        writer : Fenced_reg.writer;  (* issued after fence + takeover + bump *)
        term : int;  (* the term this writer reigns under *)
        recovered : int;  (* whatever [takeover] reported (e.g. convictions) *)
        config : int;
            (* THIS handoff's bump value, where the reign begins.  A
               later load may include other seats' bumps, and a claim
               recorded too high would convict innocent snapshots. *)
      }
    | Lost of {
        term : int;  (* term observed after losing *)
        winner : int option;  (* who holds it, if anyone *)
      }

  (* vote → prefence → takeover → config bump → issue; see the header
     for why this order is the safe one.  [takeover] runs with every
     pre-election handle already fenced and no handle of its own
     extant — the one moment inspection of the dead leader's state
     cannot race a publish from either side.  If it raises, nothing
     is bumped or issued. *)
  let campaign ?from ?(takeover = fun () -> 0) t =
    match request_vote ?from t with
    | Some term ->
      Fenced_reg.prefence t.freg;
      let recovered = takeover () in
      let config = bump t in
      let writer = Fenced_reg.issue t.freg in
      Won { writer; term; recovered; config }
    | None ->
      let now = M.load t.word in
      Lost { term = Term_vote.term now; winner = Term_vote.vote now }
end
