(* Reader sessions: admission refusal plus a bounded-stale snapshot.

   An ARC read is wait-free — it finishes in a bounded number of its
   own steps — so a session never retries it.  What a session adds is
   the answer for a reader the admission gate has refused (its ticket
   was revoked by the gate's lease sweep): the last-known-good
   snapshot, served with its age while that age is within [max_stale]
   clock units, and otherwise the gate's typed [Backpressured]
   verdict.  The caller gets a typed {!outcome}, and a degraded serve
   always discloses itself ([Stale]/[Backpressured]).

   Every live read refreshes the snapshot via a buffer-to-buffer blit
   inside the read callback; that copy is the price of the degradation
   contract (the session trades ARC's zero-copy read for the ability
   to answer when the gate says no).  The translation of the clock
   bound [max_stale] into a writes-behind bound is the checker's job
   ({!Arc_trace.Checker.check_bounded_staleness}).

   Outcome accounting uses {!Arc_obs.Obs.Outcomes} — per-class
   single-writer cells: the soak engine's recorder reads a session's
   counters from another thread {e while the session is still
   running}, and cells make any mid-run read a valid racy snapshot;
   campaign totals merge them with {!Outcomes.merge_into} after the
   sessions finish. *)

module Make (R : Arc_core.Register_intf.S) = struct
  module M = R.Mem
  module Outcomes = Arc_obs.Obs.Outcomes

  type 'a outcome =
    | Fresh of 'a
    | Stale of { value : 'a; age : int }
        (** The admission guard refused; served from the snapshot
            captured [age] clock units ago (within [max_stale]). *)
    | Backpressured of Arc_core.Register_intf.backpressure
        (** The admission guard refused — the ticket was revoked by
            the gate's lease sweep — and no admissible snapshot
            remained: re-admit through the gate for a fresh ticket. *)

  type t = {
    rd : R.reader;
    admission : (unit -> Arc_core.Register_intf.backpressure option) option;
        (* checked before each live read; [Some bp] = refused *)
    now : unit -> int;
    max_stale : int;
    snap : M.buffer;
    mutable snap_len : int;  (* -1 until the first live read *)
    mutable snap_at : int;
    outcomes : Outcomes.t;
  }

  let create ?admission ?(max_stale = max_int) ~now ~capacity rd =
    if capacity < 1 then
      invalid_arg (Printf.sprintf "Session.create: capacity = %d" capacity);
    if max_stale < 0 then
      invalid_arg (Printf.sprintf "Session.create: max_stale = %d" max_stale);
    {
      rd;
      admission;
      now;
      max_stale;
      snap = M.alloc capacity;
      snap_len = -1;
      snap_at = 0;
      outcomes = Outcomes.create ();
    }

  let outcomes t = t.outcomes

  let read_with t ~f =
    match match t.admission with Some g -> g () | None -> None with
    | Some bp ->
      let age = t.now () - t.snap_at in
      if t.snap_len >= 0 && age <= t.max_stale then begin
        Outcomes.stale t.outcomes;
        Stale { value = f t.snap t.snap_len; age }
      end
      else Backpressured bp
    | None ->
      let v =
        R.read_with t.rd ~f:(fun buf len ->
            M.blit buf t.snap ~len;
            t.snap_len <- len;
            t.snap_at <- t.now ();
            f buf len)
      in
      Outcomes.ok t.outcomes;
      Fresh v
end
