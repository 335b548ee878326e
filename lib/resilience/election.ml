(* Term-voted writer election (ISSUE 7).

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

   Backed by a heap cell ([atomic_contended]) the election arbitrates
   between domains of one process; backed by a writer seat's election
   word in a shm mapping's reign table
   ({!Arc_shm.Shm_mem.shard_election_cell}; a single register is a
   one-seat table) it arbitrates between OS processes and survives
   kill-9 — exactly as the epoch fence does with the seat's
   [shard_epoch_cell].

   Winning the vote does not make it safe to write; it makes it safe
   to {e fence}.  [campaign] orders the takeover as

     vote CAS  →  prefence  →  takeover (recovery)  →  issue

   Fence-after-vote is safe because epoch bumps are serialized by the
   vote: only the unique winner of a term prefences, so the epoch
   advances in term order and a prefence can never revoke a {e newer}
   winner's handle.  Prefencing {e before} takeover closes the zombie
   window: the deposed leader is convictable from the instant the
   successor exists in any capacity, while the wreckage is still being
   inspected.  [issue] comes last because the seat recovery of shared
   mappings ({!Arc_shm.Shm_mem.recover}) bumps the same epoch cell —
   issuing earlier would fence the winner's own fresh handle. *)

module Term_vote = Arc_util.Term_vote
module Obs = Arc_obs.Obs

(* Process-cumulative election telemetry, across every [Make]
   instantiation (same pattern as {!Arc_shm.Shm_mem}'s recovery
   counters).  Election steps run on whichever thread campaigns;
   campaigns are serialized per process by construction (a process
   fields one candidate), keeping the single-writer cell discipline. *)
module Tel = struct
  let terms_started = Obs.Cell.create ()
  let votes_granted = Obs.Cell.create ()
  let elections_won = Obs.Cell.create ()
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
      (Obs.Cell.get Tel.elections_won);
    Obs.counter "arc_election_zombie_fences_total"
      ~help:"Writes by deposed leaders aborted by the epoch fence"
      (Obs.Cell.get Fenced.zombie_fences);
  ]

let reset_metrics () =
  List.iter Obs.Cell.reset
    [ Tel.terms_started; Tel.votes_granted; Tel.elections_won; Fenced.zombie_fences ]

module Make (R : Arc_core.Register_intf.FENCEABLE) = struct
  module M = R.Mem
  module Fenced_reg = Fenced.Make (R)

  type t = {
    word : M.atomic;  (* [term ∥ vote]; CAS-only *)
    candidate : int;
    freg : Fenced_reg.t;
  }

  let create ?word ~candidate freg =
    if candidate < 0 || candidate > Term_vote.max_candidate then
      invalid_arg
        (Printf.sprintf "Election.create: candidate %d out of range [0, %d]"
           candidate Term_vote.max_candidate);
    let word =
      match word with Some w -> w | None -> M.atomic_contended Term_vote.none
    in
    { word; candidate; freg }

  let fenced t = t.freg
  let candidate t = t.candidate

  let observe t = M.load t.word
  let term t = Term_vote.term (observe t)
  let leader t = Term_vote.vote (observe t)

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

  type outcome =
    | Won of {
        writer : Fenced_reg.writer;  (* issued after fence + takeover *)
        term : int;  (* the term this writer reigns under *)
        recovered : int;  (* whatever [takeover] reported (e.g. convictions) *)
      }
    | Lost of {
        term : int;  (* term observed after losing *)
        winner : int option;  (* who holds it, if anyone *)
      }

  (* vote → prefence → takeover → issue; see the header for why this
     order is the safe one.  [takeover] runs with every pre-election
     handle already fenced and no handle of its own extant — the one
     moment inspection of the dead leader's state cannot race a
     publish from either side. *)
  let campaign ?from ?(takeover = fun () -> 0) t =
    match request_vote ?from t with
    | Some term ->
      Fenced_reg.prefence t.freg;
      let recovered = takeover () in
      let writer = Fenced_reg.issue t.freg in
      Obs.Cell.incr Tel.elections_won;
      Won { writer; term; recovered }
    | None ->
      let now = M.load t.word in
      Lost { term = Term_vote.term now; winner = Term_vote.vote now }
end
