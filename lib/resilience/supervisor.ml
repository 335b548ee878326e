(* Heartbeat-monitored writer lease + term-voted promotion (ISSUE 3,
   reworked by ISSUE 7).

   The supervisor owns the failure-{e detection} half of writer
   failover: the incumbent refreshes a heartbeat word after every
   write; a standby polls {!expired} and, once the incumbent has been
   silent past a full lease, tries to {!promote}.  Failure
   {e arbitration} — which of several suspicious standbys actually
   takes over — is delegated to {!Election}: promotion is the one
   succession campaign on a [term ∥ vote] word, and only the vote's
   unique winner gets a writer handle.  Losing an election is a normal
   outcome ([Lost]), not an error: some other standby won the same
   suspicion, and the loser goes back to monitoring its heartbeats.

   Failure detection over heartbeats is necessarily approximate: a
   slow-but-alive writer can be deposed (a {e spurious} failover).
   That is safe here — the winning campaign prefences before anything
   else, so the deposed writer's next write raises [Fenced_out] and it
   retires — and the lease only trades availability (how long writes
   stall after a real crash) against the rate of spurious handoffs.
   What the lease must strictly dominate is any {e mid-write} pause of
   the incumbent; see the residual-window note in {!Fenced} and
   DESIGN.md §6c/§6e.

   The supervisor allocates its own heap vote word and configuration
   epoch, so each handoff bumps the epoch like any succession; across
   processes a writer seat of a shm mapping's reign table holds both
   (DESIGN.md §6e) and its processes campaign through {!Election}.

   Clocks are caller-supplied so the same supervisor drives simulated
   steps (vsched) and wall-clock time.  [heartbeat] ignores handles
   whose epoch is no longer current: a zombie's heartbeat must not
   re-arm the lease it already lost. *)

module Make (R : Arc_core.Register_intf.FENCEABLE) = struct
  module Election = Election.Make (R)

  (* Alias the election's instance rather than re-applying
     [Fenced.Make (R)] — one canonical fenced-register module per
     supervisor keeps handle provenance obvious (every handle here
     came out of a campaign). *)
  module Fenced_reg = Election.Fenced_reg
  module M = R.Mem

  type t = {
    election : Election.t;
    now : unit -> int;
    lease : int;
    hb : M.atomic;  (* time of the last accepted heartbeat *)
    mutable failovers : int;
    mutable quarantined : int;  (* slots retired by crash recovery *)
    mutable last_fence : int option;
  }

  let create ~now ~lease reg =
    if lease < 1 then
      invalid_arg (Printf.sprintf "Supervisor.create: lease = %d" lease);
    {
      election =
        Election.create
          ~word:(M.atomic_contended Arc_util.Term_vote.none)
          ~config:(M.atomic_contended 1) ~candidate:0 reg;
      now;
      lease;
      hb = M.atomic_contended (now ());
      failovers = 0;
      quarantined = 0;
      last_fence = None;
    }

  let election t = t.election

  (* First acquisition is an election too — an uncontested one on a
     fresh word, but going through the campaign keeps the invariant
     that {e every} writer handle ever issued was voted for, so the
     term history names every reign. *)
  let acquire t =
    match Election.campaign t.election with
    | Election.Won { writer; _ } ->
      M.store t.hb (t.now ());
      writer
    | Election.Lost { term; winner } ->
      failwith
        (Printf.sprintf
           "Supervisor.acquire: lost the initial election (term %d held by %s)"
           term
           (match winner with Some c -> string_of_int c | None -> "nobody"))

  let heartbeat t w = if Fenced_reg.current w then M.store t.hb (t.now ())
  let age t = t.now () - M.load t.hb
  let expired t = age t > t.lease

  (* Campaign for the succession.  On [Won], the election has already
     ordered vote → prefence → takeover → config bump → issue; the
     takeover here is the register's own crash recovery — the deposed
     writer may have died mid-publish, and the slot its journal names
     must be quarantined before this successor's first free-slot
     search can hand it out with readers still on it.  The fence time
     is taken after the issue (epoch bump), so every write the deposed
     writer managed to publish precedes it — the bound
     [check_crash ?fence] needs.  On [Lost], nothing changed locally:
     some other candidate won the term and owns the takeover. *)
  let promote t =
    let outcome =
      Election.campaign
        ~takeover:(fun () ->
          Fenced_reg.recover_crash (Election.fenced t.election))
        t.election
    in
    (match outcome with
    | Election.Won { recovered; _ } ->
      t.quarantined <- t.quarantined + recovered;
      let at = t.now () in
      M.store t.hb at;
      t.failovers <- t.failovers + 1;
      t.last_fence <- Some at
    | Election.Lost _ -> ());
    outcome

  let failovers t = t.failovers
  let quarantined t = t.quarantined
  let last_fence t = t.last_fence
end
