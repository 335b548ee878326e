(* The supervision layer: backoff, epoch fencing, lease supervision
   and term-voted succession, reader sessions — each over a manual
   clock, no scheduler — then the chaos soak end to end (simulated
   scheduler, injected faults) plus its unfenced negative control. *)

module Backoff = Arc_resilience.Backoff
module Election = Arc_resilience.Election
module Soak = Arc_resilience.Soak
module Outcomes = Arc_obs.Obs.Outcomes

(* --- backoff --------------------------------------------------------- *)

let test_backoff_deterministic () =
  let draw () =
    let b = Backoff.create ~seed:42 () in
    List.init 10 (fun _ -> Backoff.next b)
  in
  Alcotest.(check (list int)) "same seed, same delays" (draw ()) (draw ())

(* The waiting room's delays: the [n]-th drawn from [1, min (4·2ⁿ) 1024]. *)
let test_backoff_envelope () =
  let b = Backoff.create ~seed:7 () in
  for n = 0 to 19 do
    let d = Backoff.next b in
    let ceiling = min 1024 (4 * (1 lsl n)) in
    if d < 1 || d > ceiling then
      Alcotest.failf "delay %d of attempt %d outside [1, %d]" d n ceiling
  done

(* --- fenced writer handles ------------------------------------------- *)

module R = Arc_core.Arc.Make (Arc_mem.Real_mem)
module E = Election.Make (R)
module P = Arc_workload.Payload.Make (Arc_mem.Real_mem)

let stamped ~seq ~len =
  let a = Array.make len 0 in
  P.stamp a ~seq ~len;
  a

let read_seq rd =
  R.read_with rd ~f:(fun buffer len ->
      match P.validate buffer ~len with
      | Ok seq -> seq
      | Error msg -> Alcotest.fail msg)

(* The value of a process-wide counter, by exposition name. *)
let counter name ms =
  match List.find_opt (fun (m : Arc_obs.Obs.metric) -> m.mname = name) ms with
  | Some m -> m.value
  | None -> Alcotest.failf "%s not exported" name

let won_total () = counter "arc_election_elections_won_total" (Election.metrics ())
let zombie_fences () = counter "arc_election_zombie_fences_total" (Election.metrics ())

let handoffs_total () =
  counter "arc_reign_handoffs_total" (Arc_fabric.Fabric.reign_metrics ())

(* A fresh heap seat: register, fence epoch, [term ∥ vote] word, a
   configuration epoch starting at 1 as a shm reign table's does, and
   a lease of 10 ticks of [now]. *)
let heap_seat ?(now = fun () -> 0) ~words () =
  E.create ~readers:1 ~capacity:words ~init:(stamped ~seq:0 ~len:words) ~now
    ~lease:10

let test_fenced_write_and_revoke () =
  let words = 4 in
  let seat = heap_seat ~words () in
  let rd = E.reader seat 0 in
  let fences0 = zombie_fences () in
  let w1 = E.issue seat in
  Alcotest.(check bool) "w1 current" true (E.current w1);
  E.write w1 ~src:(stamped ~seq:1 ~len:words) ~len:words;
  Alcotest.(check int) "w1's write lands" 1 (read_seq rd);
  let w2 = E.issue seat in
  Alcotest.(check bool) "w1 fenced by issue" false (E.current w1);
  Alcotest.(check bool) "w2 current" true (E.current w2);
  (match E.write w1 ~src:(stamped ~seq:99 ~len:words) ~len:words with
  | () -> Alcotest.fail "fenced write must not publish"
  | exception Election.Fenced_out { writer_epoch; current_epoch } ->
    Alcotest.(check int) "writer epoch" 1 writer_epoch;
    Alcotest.(check int) "current epoch" 2 current_epoch);
  Alcotest.(check (float 0.0)) "fenced write counted" 1.0 (zombie_fences () -. fences0);
  Alcotest.(check int) "old value still served" 1 (read_seq rd);
  E.write w2 ~src:(stamped ~seq:2 ~len:words) ~len:words;
  Alcotest.(check int) "successor writes flow" 2 (read_seq rd)

let test_guard_abort_publishes_nothing () =
  (* The primitive the fence relies on: a guard raising between the
     content copy and the publish exchange aborts with nothing
     published and no slot leaked. *)
  let words = 4 in
  let reg = R.create ~readers:1 ~capacity:words ~init:(stamped ~seq:0 ~len:words) in
  let rd = R.reader reg 0 in
  (try
     R.write_guarded reg
       ~src:(stamped ~seq:1 ~len:words)
       ~len:words
       ~guard:(fun () -> raise Exit)
   with Exit -> ());
  Alcotest.(check int) "nothing published" 0 (read_seq rd);
  (* No slot leaked: a long run of further writes still finds slots. *)
  for seq = 1 to 20 do
    R.write reg ~src:(stamped ~seq ~len:words) ~len:words
  done;
  Alcotest.(check int) "register healthy after abort" 20 (read_seq rd)

let test_recover_crash_clean_journal () =
  (* Taking over from a writer that died BETWEEN writes (or was merely
     deposed): the journal is clean, nothing is quarantined, and the
     register keeps full slot capacity. *)
  let words = 4 in
  let reg = R.create ~readers:1 ~capacity:words ~init:(stamped ~seq:0 ~len:words) in
  let rd = R.reader reg 0 in
  for seq = 1 to 5 do
    R.write reg ~src:(stamped ~seq ~len:words) ~len:words
  done;
  Alcotest.(check int) "clean journal: nothing quarantined" 0
    (R.recover_crash reg);
  Alcotest.(check int) "idempotent" 0 (R.recover_crash reg);
  for seq = 6 to 25 do
    R.write reg ~src:(stamped ~seq ~len:words) ~len:words
  done;
  Alcotest.(check int) "register unaffected" 25 (read_seq rd)

(* --- succession: lease, campaign, fence, over both seat backings ---- *)

(* One check, run over any seat whose clock is [!t] (starting at 0),
   whose lease is 10 and whose configuration epoch starts at 1: the
   heap seat soak builds and the shm reign-table seat arc-crash builds
   differ only in where the cells live. *)
module Succession (R : Arc_core.Register_intf.FENCEABLE) = struct
  module E = Election.Make (R)

  let check t seat =
    let words = 4 in
    let won0 = won_total () and handoffs0 = handoffs_total () in
    let w1 =
      match E.campaign seat ~candidate:0 with
      | E.Won { writer; _ } -> writer
      | E.Lost _ -> Alcotest.fail "uncontested first campaign must win"
    in
    Alcotest.(check int) "acquire reigns at config 2" 2 (E.config_at seat);
    Alcotest.(check bool) "fresh lease not expired" false (E.expired seat);
    t := 8;
    E.heartbeat w1;
    t := 15;
    Alcotest.(check bool) "heartbeat re-armed the lease" false (E.expired seat);
    t := 19;
    Alcotest.(check bool) "silent past the lease" true (E.expired seat);
    let takeovers = ref 0 in
    let w2 =
      match
        E.campaign seat ~candidate:1 ~takeover:(fun () ->
            incr takeovers;
            R.recover_crash (E.register seat))
      with
      | E.Won { writer; term; config; recovered; at } ->
        (* The first campaign opened term 1; the succession is term 2. *)
        Alcotest.(check int) "succession term" 2 term;
        Alcotest.(check int) "promotion's handoff epoch" 3 config;
        Alcotest.(check int) "clean journal: nothing quarantined" 0 recovered;
        Alcotest.(check int) "fence time recorded" 19 at;
        writer
      | E.Lost _ -> Alcotest.fail "uncontested promotion must win"
    in
    Alcotest.(check (option int)) "the standby reigns" (Some 1) (E.leader seat);
    Alcotest.(check (float 0.0)) "two handoffs counted" 2.0
      (handoffs_total () -. handoffs0);
    Alcotest.(check (float 0.0)) "elections won = reign handoffs"
      (won_total () -. won0) (handoffs_total () -. handoffs0);
    Alcotest.(check (float 0.0)) "one counter under both names" (won_total ())
      (handoffs_total ());
    Alcotest.(check int) "one takeover ran" 1 !takeovers;
    Alcotest.(check bool) "promotion re-armed the lease" false (E.expired seat);
    (* The deposed incumbent is fenced... *)
    (match E.write w1 ~src:(stamped ~seq:7 ~len:words) ~len:words with
    | () -> Alcotest.fail "zombie write must be fenced"
    | exception Election.Fenced_out _ -> ());
    (* ...and its heartbeats no longer re-arm the lease it lost. *)
    t := 35;
    E.heartbeat w1;
    Alcotest.(check bool) "zombie heartbeat ignored" true (E.expired seat);
    E.heartbeat w2;
    Alcotest.(check bool) "successor heartbeat counts" false (E.expired seat)
end

module Heap_succession = Succession (R)

let test_succession_lease_and_promotion () =
  let t = ref 0 in
  Heap_succession.check t (heap_seat ~now:(fun () -> !t) ~words:4 ());
  (* Seat 0 of a shm reign table, plus a raw heartbeat word. *)
  let module Shm = Arc_shm.Shm_mem in
  let path = Filename.temp_file "arc_succession" ".reg" in
  let m = Shm.create ~path ~words:(1 lsl 12) in
  Fun.protect
    ~finally:(fun () ->
      Shm.close m;
      try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let inst =
        Arc_shm.Shm_arc.create m ~shards:1 ~readers:1 ~capacity:4
          ~init:(stamped ~seq:0 ~len:4)
      in
      let module I = (val inst : Arc_shm.Shm_arc.INSTANCE) in
      let module S = Succession (I.R) in
      let t = ref 0 in
      S.check t
        (S.E.of_cells I.regs.(0)
           ~word:(Shm.shard_election_cell m ~shard:0)
           ~epoch:(Shm.shard_epoch_cell m ~shard:0)
           ~config:(Shm.config_epoch_cell m) ~hb:(Shm.alloc_raw m 1)
           ~now:(fun () -> !t) ~lease:10))

(* --- term-voted succession under the configuration epoch ------------ *)

let test_election_exactly_one_winner () =
  (* Two candidates race from a COMMON snapshot of the word: CAS
     atomicity admits exactly one into the next term. *)
  let seat = heap_seat ~words:4 () in
  let snap = E.observe seat in
  let r0 = E.request_vote ~from:snap seat ~candidate:0 in
  let r1 = E.request_vote ~from:snap seat ~candidate:1 in
  (match (r0, r1) with
  | Some 1, None -> Alcotest.(check (option int)) "leader" (Some 0) (E.leader seat)
  | None, Some 1 -> Alcotest.(check (option int)) "leader" (Some 1) (E.leader seat)
  | _ -> Alcotest.fail "exactly one candidate must win the term");
  Alcotest.(check int) "term advanced once" 1 (E.term seat)

exception Takeover_failed

let test_campaign_orders_fence_before_takeover () =
  (* Fence-after-vote: by the time the winner's takeover runs, every
     pre-election handle is already fenced — and the winner holds no
     handle yet, so nothing can publish during the inspection.  The
     certification argument adds: the config epoch must still be at
     its pre-handoff value while the takeover runs (no publish of the
     new reign precedes the bump), and the Won outcome must carry the
     bump's OWN return value. *)
  let seat = heap_seat ~words:4 () in
  let w_old = E.issue seat in
  let fenced_during_takeover = ref false in
  let config_during_takeover = ref 0 in
  let outcome =
    E.campaign seat ~candidate:3 ~takeover:(fun () ->
        fenced_during_takeover := not (E.current w_old);
        config_during_takeover := E.config_at seat;
        (match E.write w_old ~src:(stamped ~seq:9 ~len:4) ~len:4 with
        | () -> Alcotest.fail "old handle must be fenced inside takeover"
        | exception Election.Fenced_out _ -> ());
        7)
  in
  Alcotest.(check bool) "prefence precedes takeover" true !fenced_during_takeover;
  Alcotest.(check int) "takeover ran under the old epoch" 1
    !config_during_takeover;
  Alcotest.(check int) "epoch bumped exactly once" 2 (E.config_at seat);
  let writer =
    match outcome with
    | E.Won { writer; term; recovered; config = c; _ } ->
      Alcotest.(check int) "term" 1 term;
      Alcotest.(check int) "takeover result surfaced" 7 recovered;
      Alcotest.(check int) "Won carries this handoff's epoch" 2 c;
      Alcotest.(check bool) "winner's handle is current" true (E.current writer);
      E.write writer ~src:(stamped ~seq:1 ~len:4) ~len:4;
      Alcotest.(check int) "winner writes flow" 1 (read_seq (E.reader seat 0));
      writer
    | E.Lost _ -> Alcotest.fail "uncontested campaign must win"
  in
  (* A takeover that raises aborts the handoff after the prefence:
     the exception propagates, no handle is issued, and neither the
     config word nor the handoff counter moves. *)
  let fence_before = E.epoch seat and handoffs_before = handoffs_total () in
  (match E.campaign seat ~candidate:4 ~takeover:(fun () -> raise Takeover_failed) with
  | _ -> Alcotest.fail "a raising takeover must propagate"
  | exception Takeover_failed -> ());
  Alcotest.(check int) "term 2 was still voted" 2 (E.term seat);
  Alcotest.(check int) "prefenced, nothing issued" (fence_before + 1)
    (E.epoch seat);
  Alcotest.(check bool) "the deposed winner is fenced" false (E.current writer);
  Alcotest.(check int) "config word unmoved" 2 (E.config_at seat);
  Alcotest.(check (float 0.0)) "handoff counter unmoved" handoffs_before
    (handoffs_total ())

let test_campaign_loser_reports_winner () =
  (* A lost election completes no handoff: no takeover, no prefence,
     and the config word must not move — a loser's bump would convict
     innocent snapshots.  Successive handoffs on the same seat then
     advance term and epoch in lockstep, each winner keyed to its own
     bump. *)
  let seat = heap_seat ~words:4 () in
  let snap = E.observe seat in
  let w0 =
    match E.campaign ~from:snap seat ~candidate:0 with
    | E.Won { term = 1; config = 2; writer; _ } -> writer
    | _ -> Alcotest.fail "first campaign must win term 1 at epoch 2"
  in
  let fence_before = E.epoch seat in
  let took_over = ref false in
  (match
     E.campaign ~from:snap seat ~candidate:1 ~takeover:(fun () ->
         took_over := true;
         0)
   with
  | E.Won _ -> Alcotest.fail "stale-snapshot campaign must lose"
  | E.Lost { term; winner } ->
    Alcotest.(check int) "observed term" 1 term;
    Alcotest.(check (option int)) "observed winner" (Some 0) winner);
  Alcotest.(check bool) "loser ran no takeover" false !took_over;
  Alcotest.(check int) "loser prefenced nothing" fence_before (E.epoch seat);
  Alcotest.(check int) "loser left the epoch alone" 2 (E.config_at seat);
  Alcotest.(check bool) "winner's handle still current" true (E.current w0);
  E.write w0 ~src:(stamped ~seq:1 ~len:4) ~len:4;
  Alcotest.(check int) "winner's next write lands" 1 (read_seq (E.reader seat 0));
  match E.campaign seat ~candidate:1 with
  | E.Won { term; config = c; _ } ->
    Alcotest.(check int) "second term" 2 term;
    Alcotest.(check int) "second handoff's epoch" 3 c;
    Alcotest.(check int) "config word agrees" 3 (E.config_at seat)
  | E.Lost _ -> Alcotest.fail "fresh-snapshot campaign must win"

(* Satellite: under the virtual scheduler, a heartbeat carried by a
   stale-epoch handle can NEVER re-arm a lease that was lost — after a
   promotion, only the successor's handle refreshes the word, so a
   zombie hammering [heartbeat] still leaves the lease expired. *)
module Rs = Arc_core.Arc.Make (Arc_vsched.Sim_mem)
module Es = Election.Make (Rs)
module Ps = Arc_workload.Payload.Make (Arc_vsched.Sim_mem)
module Sched = Arc_vsched.Sched
module Strategy = Arc_vsched.Strategy

let test_vsched_stale_heartbeat_never_rearms () =
  let words = 4 in
  let lease = 20 in
  let init = Array.make words 0 in
  Ps.stamp init ~seq:0 ~len:words;
  let seat = Es.create ~readers:1 ~capacity:words ~init ~now:Sched.now ~lease in
  let promoted = ref false in
  let zombie_beats = ref 0 in
  let rearmed = ref false in
  let zombie_fenced = ref false in
  let still_expired = ref false in
  let leader () =
    let w1 =
      match Es.campaign seat ~candidate:0 with
      | Es.Won { writer; _ } -> writer
      | Es.Lost _ -> Alcotest.fail "uncontested first campaign lost"
    in
    Es.heartbeat w1;
    (* Stall far past the lease: the classic paused-leader zombie. *)
    Sched.sleep 200;
    (* Wake up deposed and hammer the lease; none of these beats may
       re-arm it (the successor is deliberately silent). *)
    for _ = 1 to 5 do
      Es.heartbeat w1;
      incr zombie_beats;
      if not (Es.expired seat) then rearmed := true;
      Sched.sleep 10
    done;
    let src = Array.make words 0 in
    Ps.stamp src ~seq:99 ~len:words;
    (match Es.write w1 ~src ~len:words with
    | () -> ()
    | exception Election.Fenced_out _ -> zombie_fenced := true);
    (* Judged in-fiber: the virtual clock only exists during the run. *)
    still_expired := Es.expired seat
  in
  let standby () =
    let rec monitor () =
      if !promoted then ()
      else if Es.expired seat then
        match
          Es.campaign seat ~candidate:1 ~takeover:(fun () ->
              Rs.recover_crash (Es.register seat))
        with
        | Es.Won _ ->
          (* Promote, then fall silent: any later lease refresh could
             only come from the zombie. *)
          promoted := true
        | Es.Lost _ -> Alcotest.fail "uncontested promotion lost"
      else begin
        Sched.cede ();
        monitor ()
      end
    in
    monitor ()
  in
  ignore
    (Sched.run ~max_steps:100_000
       ~strategy:(Strategy.random ~seed:4242)
       [| leader; standby |]);
  Alcotest.(check bool) "standby promoted" true !promoted;
  Alcotest.(check bool) "zombie heartbeats attempted" true (!zombie_beats > 0);
  Alcotest.(check bool) "no zombie beat re-armed the lease" false !rearmed;
  Alcotest.(check bool) "zombie write fenced" true !zombie_fenced;
  Alcotest.(check bool) "lease still expired at the end" true !still_expired

(* --- sessions -------------------------------------------------------- *)

module S = Arc_resilience.Session.Make (R)

(* A session over a fresh register on a manual clock, its admission
   guard refusing with [refuse]'s verdict while that is [Some]. *)
let session_env ?max_stale ~words () =
  let t = ref 0 and refuse = ref None in
  let reg = R.create ~readers:1 ~capacity:words ~init:(stamped ~seq:0 ~len:words) in
  let s =
    S.create
      ~admission:(fun () -> !refuse)
      ?max_stale
      ~now:(fun () -> !t)
      ~capacity:words (R.reader reg 0)
  in
  (t, refuse, reg, s)

let refusal = { Arc_core.Register_intf.retry_after = 7; live = 1; high_water = 1 }

let get_seq buffer len =
  match P.validate buffer ~len with
  | Ok seq -> seq
  | Error msg -> Alcotest.fail msg

let test_session_fresh () =
  let words = 4 in
  let _t, _refuse, reg, s = session_env ~words () in
  R.write reg ~src:(stamped ~seq:1 ~len:words) ~len:words;
  (match S.read_with s ~f:get_seq with
  | S.Fresh 1 -> ()
  | _ -> Alcotest.fail "expected Fresh 1");
  Alcotest.(check int) "ok counted" 1 (Outcomes.ok_count (S.outcomes s));
  Alcotest.(check int) "nothing stale" 0 (Outcomes.stale_count (S.outcomes s))

(* A refused read serves the snapshot of the last live read, aged by
   the clock, and counts it stale. *)
let test_session_stale_within_bound () =
  let words = 4 in
  let t, refuse, reg, s = session_env ~max_stale:50 ~words () in
  R.write reg ~src:(stamped ~seq:3 ~len:words) ~len:words;
  ignore (S.read_with s ~f:get_seq);
  R.write reg ~src:(stamped ~seq:4 ~len:words) ~len:words;
  t := !t + 20;
  refuse := Some refusal;
  (match S.read_with s ~f:get_seq with
  | S.Stale { value = 3; age = 20 } -> ()
  | _ -> Alcotest.fail "expected Stale 3 aged 20");
  Alcotest.(check int) "stale counted" 1 (Outcomes.stale_count (S.outcomes s));
  Alcotest.(check int) "one live read" 1 (Outcomes.ok_count (S.outcomes s))

(* [max_stale] is inclusive: a snapshot exactly that old is served, one
   step older is refused with the guard's own verdict. *)
let test_session_stale_bound_exceeded () =
  let words = 4 in
  let t, refuse, reg, s = session_env ~max_stale:10 ~words () in
  R.write reg ~src:(stamped ~seq:1 ~len:words) ~len:words;
  ignore (S.read_with s ~f:get_seq);
  refuse := Some refusal;
  t := 10;
  (match S.read_with s ~f:get_seq with
  | S.Stale { value = 1; age = 10 } -> ()
  | _ -> Alcotest.fail "a snapshot aged exactly max_stale must be served");
  t := 11;
  (match S.read_with s ~f:get_seq with
  | S.Backpressured bp ->
    Alcotest.(check int) "verdict carried" 7 bp.Arc_core.Register_intf.retry_after
  | _ -> Alcotest.fail "snapshot past max_stale must not be served");
  Alcotest.(check int) "refusal not counted stale" 1
    (Outcomes.stale_count (S.outcomes s))

(* --- chaos soak (end to end, simulated) ------------------------------ *)

let test_soak_clean_and_non_vacuous () =
  let cfg = { Soak.default with Soak.runs = 12 } in
  let rs = Soak.run cfg in
  List.iter
    (fun (seed, msg) -> Printf.printf "seed %d: %s\n%!" seed msg)
    (Soak.violations rs);
  Alcotest.(check bool) "soak clean" true (Soak.clean rs);
  Alcotest.(check int) "all runs executed" 12 (List.length rs);
  Alcotest.(check bool) "writes happened" true (Soak.writes rs > 0);
  Alcotest.(check bool) "fresh reads happened" true (Soak.fresh rs > 0);
  (* Non-vacuity: the machinery under test must actually fire. *)
  Alcotest.(check bool)
    (Printf.sprintf "failovers (%d) occurred" (Soak.failovers rs))
    true (Soak.failovers rs > 0);
  Alcotest.(check bool)
    (Printf.sprintf "fenced writes (%d) occurred" (Soak.fenced_writes rs))
    true (Soak.fenced_writes rs > 0);
  let vanished = Soak.pending_resolved Arc_trace.Checker.Vanished rs
  and took_effect = Soak.pending_resolved Arc_trace.Checker.Took_effect rs in
  Alcotest.(check bool)
    (Printf.sprintf "crash completions (%d vanished, %d took effect) judged"
       vanished took_effect)
    true
    (vanished + took_effect > 0)

(* The binary's live heartbeat sums the reports [on_run] has seen with
   the summary's own functions, so at the end of a campaign both agree
   (the heartbeat once counted standby writes twice). *)
let test_soak_on_run_totals_match_summary () =
  let cfg = { Soak.default with Soak.runs = 5 } in
  let seen = ref [] in
  let rs = Soak.run ~on_run:(fun r -> seen := r :: !seen) cfg in
  let seen = List.rev !seen in
  List.iter
    (fun (what, total) ->
      Alcotest.(check int) what (total rs) (total seen))
    [
      ("runs", List.length);
      ("writes", Soak.writes);
      ("fresh", Soak.fresh);
      ("stale", Soak.stale);
      ("failing", Soak.failing);
    ]

let test_soak_crash_recovery_regression () =
  (* Regression: a writer crash between the W2 publish and the W3
     supersede-freeze leaves a slot whose subscribers are recorded
     nowhere; before [recover_crash] quarantine, the promoted standby
     recycled it under live readers and produced torn snapshots.  Each
     seed is one whose incumbent dies inside that window, so the
     successor's recovery quarantines a slot (the first resolves its
     pending write as took-effect, the second as vanished). *)
  List.iter
    (fun seed ->
      let r = Soak.run_one ~seed Soak.default in
      let s = Option.get r.Soak.stats in
      Alcotest.(check (list string))
        (Printf.sprintf "seed %d clean" seed)
        [] r.Soak.violations;
      Alcotest.(check int) (Printf.sprintf "seed %d untorn" seed) 0 s.Soak.torn;
      Alcotest.(check bool)
        (Printf.sprintf "seed %d quarantined %d slots" seed s.Soak.mode.Soak.quarantined)
        true
        (s.Soak.mode.Soak.quarantined >= 1))
    [ 31337094057; 31337094061 ]

let test_soak_unfenced_control_convicted () =
  let cfg = Soak.default in
  let convicted, reasons =
    Soak.unfenced_control ~seed:(Soak.derive_seed cfg 0) cfg
  in
  Alcotest.(check bool)
    (Printf.sprintf "unfenced handoff convicted (%d reasons)"
       (List.length reasons))
    true convicted

(* --- churn soak ------------------------------------------------------ *)

let test_churn_clean_and_non_vacuous () =
  let c = { Soak.default_churn with base = { Soak.default_churn.base with runs = 4 } } in
  let rs = Soak.run_churn c in
  List.iter
    (fun (seed, msg) -> Printf.printf "seed %d: %s\n%!" seed msg)
    (Soak.violations rs);
  Alcotest.(check bool) "churn clean" true (Soak.clean rs);
  Alcotest.(check int) "all runs executed" 4 (List.length rs);
  List.iter
    (fun (what, n) ->
      Alcotest.(check bool) (Printf.sprintf "%s (%d) > 0" what n) true (n > 0))
    [
      ("arrivals", Soak.arrivals rs);
      ("admissions", Soak.admitted rs);
      ("evictions", Soak.evicted rs);
      ("abandonments", Soak.abandoned rs);
      (* Refused reads, served stale and judged against the bound:
         what keeps [Checker.check_bounded_staleness] non-vacuous. *)
      ("refused serves", Soak.refused_serves rs);
      ("stale serves", Soak.stale rs);
      ("serves checked", Soak.serves_checked rs);
    ];
  Alcotest.(check bool)
    (Printf.sprintf "live buffers max %d <= gate + 2" (Soak.live_buffers_max rs))
    true
    (Soak.live_buffers_max rs <= c.gate_capacity + 2)

let test_churn_control_convicted () =
  let c = Soak.default_churn in
  let convicted, reasons =
    Soak.churn_control ~seed:(Soak.derive_seed c.base 0) c
  in
  Alcotest.(check bool)
    (Printf.sprintf "gate bypass convicted (%d reasons)" (List.length reasons))
    true convicted

let suite =
  [
    Alcotest.test_case "backoff deterministic" `Quick test_backoff_deterministic;
    Alcotest.test_case "backoff envelope" `Quick test_backoff_envelope;
    Alcotest.test_case "fenced write and revoke" `Quick test_fenced_write_and_revoke;
    Alcotest.test_case "guard abort publishes nothing" `Quick
      test_guard_abort_publishes_nothing;
    Alcotest.test_case "recover_crash clean journal" `Quick
      test_recover_crash_clean_journal;
    Alcotest.test_case "succession lease and promotion" `Quick
      test_succession_lease_and_promotion;
    Alcotest.test_case "election exactly one winner" `Quick
      test_election_exactly_one_winner;
    Alcotest.test_case "campaign fences before takeover" `Quick
      test_campaign_orders_fence_before_takeover;
    Alcotest.test_case "campaign loser reports winner" `Quick
      test_campaign_loser_reports_winner;
    Alcotest.test_case "vsched: stale heartbeat never re-arms" `Quick
      test_vsched_stale_heartbeat_never_rearms;
    Alcotest.test_case "session fresh" `Quick test_session_fresh;
    Alcotest.test_case "session stale within bound" `Quick
      test_session_stale_within_bound;
    Alcotest.test_case "session stale bound exceeded" `Quick
      test_session_stale_bound_exceeded;
    Alcotest.test_case "chaos soak clean and non-vacuous" `Slow
      test_soak_clean_and_non_vacuous;
    Alcotest.test_case "soak crash-recovery regression seeds" `Quick
      test_soak_crash_recovery_regression;
    Alcotest.test_case "unfenced control convicted" `Quick
      test_soak_unfenced_control_convicted;
    Alcotest.test_case "soak on_run totals match the summary" `Quick
      test_soak_on_run_totals_match_summary;
    Alcotest.test_case "churn soak clean and non-vacuous" `Quick
      test_churn_clean_and_non_vacuous;
    Alcotest.test_case "churn gate-bypass control convicted" `Quick
      test_churn_control_convicted;
  ]
