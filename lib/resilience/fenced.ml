(* Epoch-fenced writer handles (ISSUE 3).

   A register's writer role is represented by a revocable handle
   carrying the generation ([gen]) it was issued under.  Issuing a new
   handle bumps the shared epoch word, which fences every older
   handle: their subsequent writes raise {!Fenced_out} instead of
   publishing.  The epoch is re-validated twice per write —

   - at entry, which catches a deposed writer cheaply before it does
     any work (the common zombie case: a writer that was paused past
     its lease and resumed {e between} writes);
   - inside {!Register_intf.FENCEABLE.write_guarded}'s guard, i.e.
     after the content copy and immediately before the publish
     exchange, which catches a writer deposed {e mid-write} and aborts
     with nothing published.

   The residual window is the single publish instruction after the
   guard's load: a writer descheduled exactly there for an entire
   promotion could still publish one stale write.  That window is
   closed by the supervision layer's lease discipline ({!Supervisor}):
   a standby is only promoted once the incumbent has missed heartbeats
   for a full lease, and the lease is chosen larger than any
   mid-operation pause the deployment can suffer — the classic
   lease-fencing argument.  DESIGN.md §6c states the assumption; the
   soak's fault plans draw mid-write stalls strictly below the lease,
   and the negative-control test shows what an {e unfenced} handoff
   does to the history.

   Across processes the epoch word is a writer seat's fence epoch in a
   shm mapping's reign table ([of_register]), so the fence outlives
   the writer that held it.  Outside tests, the only caller of
   [prefence] and [issue] is the one succession campaign
   ({!Election.campaign}), so every handle in service was voted for. *)

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

(* Process-wide count of writes aborted by the fence, across every
   [Make] instantiation: the election exposes it as
   [arc_election_zombie_fences_total] ({!Election.metrics}) — each one
   is a deposed leader whose late publish the fence convicted.
   Single-writer cell discipline holds: fenced writers execute on the
   (one) thread that held the handle. *)
let zombie_fences = Arc_obs.Obs.Cell.create ()

module Make (R : Arc_core.Register_intf.FENCEABLE) = struct
  module M = R.Mem

  type t = {
    reg : R.t;
    epoch : M.atomic;
    mutable fenced_writes : int;  (* writes aborted by the fence *)
  }

  let create ~readers ~capacity ~init =
    {
      reg = R.create ~readers ~capacity ~init;
      epoch = M.atomic_contended 0;
      fenced_writes = 0;
    }

  (* Wrap an existing register, with the epoch cell supplied by the
     caller instead of freshly allocated.  This is how the fence
     survives a real process crash: a shared-memory harness backs
     [epoch] with its writer seat's epoch word
     ({!Arc_shm.Shm_mem.shard_epoch_cell}), so handles issued before a
     SIGKILL are already fenced when the survivor re-issues —
     [Shm_mem.recover] of the seat bumps the same cell.  The caller owns epoch
     semantics: issue after any out-of-band bump, never reuse the cell
     across registers.  [fenced_writes] is process-local either way. *)
  let of_register reg ~epoch = { reg; epoch; fenced_writes = 0 }

  let inner t = t.reg
  let reader t i = R.reader t.reg i
  let epoch t = M.load t.epoch
  let fenced_writes t = t.fenced_writes
  let recover_crash t = R.recover_crash t.reg

  (** A revocable writer handle: valid while its generation matches
      the register's epoch. *)
  type writer = { t : t; gen : int }

  let issue t = { t; gen = 1 + M.fetch_and_add t.epoch 1 }

  (* Bump the epoch WITHOUT issuing a handle: every outstanding handle
     is fenced, and nobody holds the new generation.  This is the
     election's fence-after-vote step ({!Election.campaign}): the
     moment a candidate wins the vote it prefences, so the deposed
     leader is already convictable while the winner is still
     inspecting the wreckage (recovery, quarantine) — the winner only
     [issue]s once takeover and the configuration-epoch bump are
     complete. *)
  let prefence t = ignore (M.fetch_and_add t.epoch 1)

  let writer_epoch w = w.gen
  let current w = M.load w.t.epoch = w.gen

  let reject w current_epoch =
    w.t.fenced_writes <- w.t.fenced_writes + 1;
    Arc_obs.Obs.Cell.incr zombie_fences;
    raise (Fenced_out { writer_epoch = w.gen; current_epoch })

  let write w ~src ~len =
    let e = M.load w.t.epoch in
    if e <> w.gen then reject w e;
    R.write_guarded w.t.reg ~src ~len ~guard:(fun () ->
        let e = M.load w.t.epoch in
        if e <> w.gen then reject w e)
end
