type violation =
  | Malformed of string
  | Stale_read of { read : History.event; low : int }
  | Future_read of { read : History.event; high : int }
  | New_old_inversion of { earlier : History.event; later : History.event }

let pp_violation ppf = function
  | Malformed msg -> Format.fprintf ppf "malformed history: %s" msg
  | Stale_read { read; low } ->
    Format.fprintf ppf
      "stale read: %a but write %d had already completed before it started"
      History.pp_event read low
  | Future_read { read; high } ->
    Format.fprintf ppf
      "impossible read: %a but the newest write invoked before it returned is %d"
      History.pp_event read high
  | New_old_inversion { earlier; later } ->
    Format.fprintf ppf "new-old inversion: %a precedes %a" History.pp_event earlier
      History.pp_event later

type report = { reads_checked : int; writes_checked : int; fast_path_candidates : int }

let ( let* ) = Result.bind

let well_formed h =
  let writes = Array.of_list (History.writes h) in
  let k = Array.length writes in
  let rec check_writes i prev_end =
    if i >= k then Ok ()
    else begin
      let w = writes.(i) in
      if w.History.seq <> i + 1 then
        Error
          (Malformed
             (Format.asprintf "write sequence gap: expected %d, got %a" (i + 1)
                History.pp_event w))
      else if w.History.invoked < prev_end then
        Error
          (Malformed
             (Format.asprintf "writer not sequential at %a" History.pp_event w))
      else check_writes (i + 1) w.History.returned
    end
  in
  let* () = check_writes 0 min_int in
  let bad_read =
    List.find_opt (fun (r : History.event) -> r.seq < 0 || r.seq > k) (History.reads h)
  in
  match bad_read with
  | Some r ->
    Error
      (Malformed
         (Format.asprintf "read of never-written value: %a (writes: %d)"
            History.pp_event r k))
  | None -> Ok writes

(* Largest i with key.(i) < x, plus one — i.e. how many entries are
   strictly below x — over a non-decreasing array. *)
let count_below keys x =
  let lo = ref 0 and hi = ref (Array.length keys) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if keys.(mid) < x then lo := mid + 1 else hi := mid
  done;
  !lo

let regularity h writes =
  let write_ends = Array.map (fun (w : History.event) -> w.returned) writes in
  let write_starts = Array.map (fun (w : History.event) -> w.invoked) writes in
  let rec go = function
    | [] -> Ok ()
    | (r : History.event) :: rest ->
      let low = count_below write_ends r.invoked in
      let high = count_below write_starts r.returned in
      if r.seq < low then Error (Stale_read { read = r; low })
      else if r.seq > high then Error (Future_read { read = r; high })
      else go rest
  in
  go (History.reads h)

let no_new_old_inversion h =
  let by_returned =
    List.sort
      (fun (a : History.event) b -> compare a.returned b.returned)
      (History.reads h)
  in
  let by_invoked = History.reads h (* already sorted by invocation *) in
  (* Sweep reads in invocation order; [completed] walks reads in
     return order, maintaining the maximum seq among reads that
     returned strictly before the current read was invoked. *)
  let completed = ref by_returned in
  let max_seq = ref (-1) in
  let max_ev = ref None in
  let rec advance bound =
    match !completed with
    | (c : History.event) :: rest when c.returned < bound ->
      if c.seq > !max_seq then begin
        max_seq := c.seq;
        max_ev := Some c
      end;
      completed := rest;
      advance bound
    | _ -> ()
  in
  let rec go = function
    | [] -> Ok ()
    | (r : History.event) :: rest ->
      advance r.invoked;
      if r.seq < !max_seq then
        Error
          (New_old_inversion { earlier = Option.get !max_ev; later = r })
      else go rest
  in
  go by_invoked

(* The reads thread by thread, each thread's in invocation order, which
   is its program order: a thread's reads are sequential. *)
let by_thread h =
  List.stable_sort
    (fun (a : History.event) b -> Int.compare a.thread b.thread)
    (History.reads h)

(* A thread's read also follows its previous read when stamped at the
   instant that read returned, which the sweep above counts as
   concurrent. *)
let rec program_order = function
  | (p : History.event) :: ((r : History.event) :: _ as rest) ->
    if p.thread = r.thread && r.seq < p.seq then
      Error (New_old_inversion { earlier = p; later = r })
    else program_order rest
  | _ -> Ok ()

let fast_path_candidates threads =
  let rec go n = function
    | (p : History.event) :: ((r : History.event) :: _ as rest) ->
      go (if p.thread = r.thread && p.seq = r.seq then n + 1 else n) rest
    | _ -> n
  in
  go 0 threads

let report h threads =
  {
    reads_checked = List.length (History.reads h);
    writes_checked = List.length (History.writes h);
    fast_path_candidates = fast_path_candidates threads;
  }

let check_regular_only h =
  let* writes = well_formed h in
  let* () = regularity h writes in
  Ok (report h (by_thread h))

let check h =
  let* writes = well_formed h in
  let* () = regularity h writes in
  let* () = no_new_old_inversion h in
  let threads = by_thread h in
  let* () = program_order threads in
  Ok (report h threads)

type crash_outcome = No_crash | Vanished | Took_effect

let crash_outcome_name = function
  | No_crash -> "no-crash"
  | Vanished -> "vanished"
  | Took_effect -> "took-effect"

(* A write pending at the writer's crash has no return event: it is
   allowed to either never take effect (no read returns it) or to take
   effect at any point after its invocation (reads from then on may
   return it).  Both candidate completions reuse the full checker; a
   history is crash-consistent iff at least one passes.  The
   took-effect candidate models the open-ended linearization window
   with [returned = max_int], which the interval arithmetic of
   {!regularity} treats as "never completed before anything" — it can
   satisfy reads but never forces staleness on them.

   [?fence] bounds that window: under epoch-fenced failover
   (Arc_resilience.Election) the crashed writer's pending write can only
   have been published before the successor fenced its epoch, so the
   took-effect candidate completes at the fence instead of never.
   This is strictly stronger — a post-fence history in which the
   successor's writes interleave after the fence must still be
   writer-sequential relative to the pending write, which [max_int]
   would wrongly forgive. *)
let check_crash ?pending_write ?fence h =
  match pending_write with
  | None -> Result.map (fun r -> (r, No_crash)) (check h)
  | Some (seq, invoked) -> (
    match check h with
    | Ok r -> Ok (r, Vanished)
    | Error vanished_violation -> (
      let returned = match fence with None -> max_int | Some f -> max f invoked in
      let ev = History.event History.Write ~thread:0 ~seq ~invoked ~returned in
      let h' = History.of_events (ev :: History.events h) in
      match check h' with
      | Ok r -> Ok (r, Took_effect)
      | Error _ ->
        (* Neither completion explains the history; report the verdict
           on the as-recorded events, which names real reads. *)
        Error vanished_violation))

(* {1 Bounded staleness of degraded reads}

   Reads refused by a session's admission guard and served from its
   last-known-good snapshot are deliberately excluded from the atomic
   history — they are the documented departure.  What they owe instead
   is the session's bounded-staleness contract: a serve at time [t]
   returning value [seq] must not lag the register by more than [bound]
   writes, i.e. [seq >= completed_writes_before(t) - bound].  The writes used
   as the yardstick are the recorded (atomic) history's writes. *)

type stale_serve = { thread : int; seq : int; at : int }

type staleness_violation = {
  serve : stale_serve;
  completed : int;  (** writes completed before the serve *)
  bound : int;
}

let pp_staleness_violation ppf v =
  Format.fprintf ppf
    "stale serve out of bound: thread %d served seq %d at %d, but %d writes had \
     completed (allowed lag %d, floor seq %d)"
    v.serve.thread v.serve.seq v.serve.at v.completed v.bound (v.completed - v.bound)

(* {1 Cross-shard snapshot checking (ISSUE 6)}

   A fabric snapshot claims its whole vector was simultaneously
   published at one instant inside the snapshot's interval.  Checking
   decomposes:

   - {b per shard}: project every snapshot onto shard [i] as an
     ordinary read event (same interval, the shard's observed seq) and
     run the full single-register check against that shard's writes —
     regularity and new-old inversions per component come for free
     from the existing machinery;
   - {b cross shard}: intersect the validity windows.  Value [v] of
     shard [i] can have been current no earlier than the invocation of
     write [v] and no later than the return of write [v + 1]
     (maximally permissive endpoints — a conviction can never be a
     timestamping artifact).  The intersection of all shard windows,
     clipped to the snapshot's own interval, must be non-empty;
     otherwise some shard was observed fresh after another's observed
     value was already dead — a torn snapshot. *)

type snapshot_obs = {
  sthread : int;
  invoked : int;
  returned : int;
  observed : int array;  (** per shard: seq of the value in the vector *)
  sepoch : int;  (** configuration epoch certified under; 0 = uncertified *)
}

(* A reign claim (ISSUE 9): shard [rshard]'s writes from [first_seq]
   onward (until a later claim for the same shard takes over) were
   published under configuration epoch [config].  The harness records
   one claim per leadership interval — the original leader's and one
   per elected successor. *)
type reign = { rshard : int; first_seq : int; config : int }

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

let pp_fabric_violation ppf = function
  | Shard_violation { shard; violation } ->
    Format.fprintf ppf "shard %d: %a" shard pp_violation violation
  | Torn_snapshot { snapshot; fresh_shard; stale_shard; earliest; latest } ->
    Format.fprintf ppf
      "torn snapshot: thread %d [%d, %d] observed shard %d's seq %d (alive from \
       %d) after shard %d's seq %d was already superseded (dead by %d)"
      snapshot.sthread snapshot.invoked snapshot.returned fresh_shard
      snapshot.observed.(fresh_shard) earliest stale_shard
      snapshot.observed.(stale_shard) latest
  | Cross_reign { snapshot; shard; config } ->
    Format.fprintf ppf
      "cross-reign snapshot: thread %d [%d, %d] certified under configuration \
       epoch %d, but shard %d's seq %d was published by reign %d"
      snapshot.sthread snapshot.invoked snapshot.returned snapshot.sepoch shard
      snapshot.observed.(shard) config

type fabric_report = {
  fshards : int;
  snapshots_checked : int;
  shard_reports : report array;
}

let check_fabric ?(reigns = []) ~writes ~snapshots () =
  let nshards = Array.length writes in
  if nshards = 0 then invalid_arg "Checker.check_fabric: no shards";
  List.iter
    (fun s ->
      if Array.length s.observed <> nshards then
        invalid_arg
          (Printf.sprintf
             "Checker.check_fabric: snapshot observed %d shards, expected %d"
             (Array.length s.observed) nshards))
    snapshots;
  (* Per-shard pass: shard writes + projected snapshot reads through
     the full single-register checker. *)
  let shard_reports = Array.make nshards (report (History.of_events []) []) in
  let rec per_shard i =
    if i >= nshards then Ok ()
    else begin
      let reads =
        List.map
          (fun s ->
            History.event History.Read ~thread:s.sthread ~seq:s.observed.(i)
              ~invoked:s.invoked ~returned:s.returned)
          snapshots
      in
      let h = History.of_events (reads @ History.events writes.(i)) in
      match check h with
      | Ok r ->
        shard_reports.(i) <- r;
        per_shard (i + 1)
      | Error violation -> Error (Shard_violation { shard = i; violation })
    end
  in
  let* () = per_shard 0 in
  (* Cross-shard pass: non-empty intersection of validity windows. *)
  let shard_writes =
    Array.map (fun h -> Array.of_list (History.writes h)) writes
  in
  (* Reign pass (ISSUE 9): the reign that published shard [i]'s
     observed value is the largest-[config] claim covering its seq.  A
     certified snapshot ([sepoch > 0]) must draw every shard value
     from a reign ≤ its certification epoch; uncertified snapshots
     ([sepoch = 0]) claim nothing about reigns and are exempt. *)
  let reign_of i v =
    List.fold_left
      (fun acc (r : reign) ->
        if r.rshard = i && r.first_seq <= v && r.config > acc then r.config
        else acc)
      0 reigns
  in
  let cross_reign s =
    if s.sepoch = 0 then None
    else begin
      let bad = ref None in
      for i = nshards - 1 downto 0 do
        let c = reign_of i s.observed.(i) in
        if c > s.sepoch then bad := Some (Cross_reign { snapshot = s; shard = i; config = c })
      done;
      !bad
    end
  in
  let rec per_snapshot checked = function
    | [] -> Ok { fshards = nshards; snapshots_checked = checked; shard_reports }
    | s :: rest ->
      let earliest = ref s.invoked and fresh = ref (-1) in
      let latest = ref s.returned and stale = ref (-1) in
      for i = 0 to nshards - 1 do
        let v = s.observed.(i) in
        let ws = shard_writes.(i) in
        (* well_formed (inside [check]) already certified seq j lives
           at index j - 1 and that v is in range. *)
        let birth = if v = 0 then min_int else ws.(v - 1).History.invoked in
        let death =
          if v >= Array.length ws then max_int else ws.(v).History.returned
        in
        if birth > !earliest then begin
          earliest := birth;
          fresh := i
        end;
        if death < !latest then begin
          latest := death;
          stale := i
        end
      done;
      if !earliest > !latest then
        Error
          (Torn_snapshot
             {
               snapshot = s;
               fresh_shard = (if !fresh >= 0 then !fresh else 0);
               stale_shard = (if !stale >= 0 then !stale else 0);
               earliest = !earliest;
               latest = !latest;
             })
      else begin
        match cross_reign s with
        | Some v -> Error v
        | None -> per_snapshot (checked + 1) rest
      end
  in
  per_snapshot 0 snapshots

let check_bounded_staleness h ~bound serves =
  if bound < 0 then
    invalid_arg
      (Printf.sprintf "Checker.check_bounded_staleness: bound = %d (need >= 0)" bound);
  let write_ends =
    Array.of_list
      (List.map (fun (w : History.event) -> w.returned) (History.writes h))
  in
  Array.sort compare write_ends;
  let rec go checked = function
    | [] -> Ok checked
    | s :: rest ->
      let completed = count_below write_ends s.at in
      if s.seq < completed - bound then Error { serve = s; completed; bound }
      else go (checked + 1) rest
  in
  go 0 serves
