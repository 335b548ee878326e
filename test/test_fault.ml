(* Fault-injection subsystem (ISSUE 2): crash-stop readers, stalled
   threads, torn writer copies — driven through the register
   algorithms by seeded campaigns, judged by the crash-aware checker
   and the presence-ledger auditor, with fault-layer-driven broken
   registers as negative controls proving none of it is vacuous. *)

module Fault_plan = Arc_fault.Fault_plan
module Campaign = Arc_fault.Campaign
module Checker = Arc_trace.Checker
module Packed = Arc_util.Packed
module Strategy = Arc_vsched.Strategy
module Sched = Arc_vsched.Sched
module Replay = Arc_vsched.Replay
module Config = Arc_harness.Config

module RA = Arc_core.Arc.Make (Campaign.Mem)
module CA = Campaign.Make (RA)
module RN = Arc_core.Arc_nohint.Make (Campaign.Mem)
module CN = Campaign.Make (RN)
module RD = Arc_core.Arc_dynamic.Make (Campaign.Mem)
module CD = Campaign.Make (RD)
module RF = Arc_baselines.Rf.Make (Campaign.Mem)
module CF = Campaign.Make (RF)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* White-box probes wiring each ARC variant's Debug into the
   campaign's invariant audit (presence-ledger slack within
   [0, crashed]; Lemma 4.1's free slot survives crashes). *)
module PA = Campaign.Arc_probes (RA)
module PN = Campaign.Arc_probes (RN)
module PD = Campaign.Arc_probes (RD)

let fail_violations who (o : Campaign.outcome) =
  match o.Campaign.violations with
  | [] -> ()
  | (seed, msg) :: _ ->
    Alcotest.failf "%s: %d violations, first (seed %d): %s" who
      (List.length o.Campaign.violations)
      seed msg

(* {1 The bounded fault campaigns} *)

let test_campaign_arc () =
  let cfg = { Campaign.default with schedules = 100; seed = 2024 } in
  let o = CA.run ~audit:PA.audit cfg in
  fail_violations "arc" o;
  Alcotest.(check int) "all schedules ran" 100 o.Campaign.schedules_run;
  (* Non-vacuity: over 100 random plans the fault classes must all
     actually fire. *)
  Alcotest.(check bool) "reader crashes fired" true (o.Campaign.reader_crashes > 0);
  Alcotest.(check bool) "stalls fired" true (o.Campaign.stalls > 0);
  Alcotest.(check bool) "writer crashes fired" true (o.Campaign.writer_crashes > 0);
  Alcotest.(check bool) "histories checked" true (o.Campaign.reads_checked > 0);
  (* Both crash-completion verdicts must occur: some pending writes
     vanish, some take effect. *)
  Alcotest.(check bool) "some pending writes resolved" true
    (o.Campaign.vanished + o.Campaign.took_effect > 0)

let test_campaign_arc_nohint () =
  let cfg = { Campaign.default with schedules = 40; seed = 31 } in
  let o = CN.run ~audit:PN.audit cfg in
  fail_violations "arc-nohint" o;
  Alcotest.(check bool) "faults fired" true (o.Campaign.reader_crashes > 0)

let test_campaign_arc_dynamic () =
  let cfg = { Campaign.default with schedules = 40; seed = 47 } in
  let o = CD.run ~audit:PD.audit cfg in
  fail_violations "arc-dynamic" o;
  Alcotest.(check bool) "faults fired" true (o.Campaign.reader_crashes > 0)

let test_campaign_rf () =
  let cfg = { Campaign.default with schedules = 40; seed = 53 } in
  let o = CF.run cfg in
  fail_violations "rf" o;
  Alcotest.(check bool) "faults fired" true (o.Campaign.reader_crashes > 0)

let test_campaign_deterministic () =
  let cfg = { Campaign.default with schedules = 20; seed = 7 } in
  let o1 = CA.run ~audit:PA.audit cfg in
  let o2 = CA.run ~audit:PA.audit cfg in
  Alcotest.(check bool) "same seed, same outcome" true (o1 = o2)

(* {1 Negative controls: the pipeline must convict} *)

(* Torn write via the fault layer: the writer's second bulk copy stops
   after 3 of 16 words but reports success — readers must observe
   payload validation failures. *)
let test_silent_tear_convicted () =
  let plan = Broken_regs.Faulty_plans.silent_tear ~at_copy:2 ~at_word:3 in
  let cfg = { Campaign.default with max_steps = 20_000 } in
  let result, _reg = CA.run_plan ~plan ~strategy:(Strategy.random ~seed:9) cfg in
  Alcotest.(check int) "the tear fired" 1
    (List.length result.Campaign.stats.Arc_fault.Fault_mem.tears);
  Alcotest.(check bool) "torn snapshots detected" true (result.Campaign.torn > 0)

(* Lost release via the fault layer: reader fiber 1's first RMW — its
   R3 release increment — is dropped.  The history stays atomic, so
   only the presence-ledger audit can convict: slack goes negative
   (presence double-counted).  If the leaked presence instead starves
   the writer of free slots first, that failure is an equally valid
   conviction. *)
let test_lost_release_convicted () =
  let plan = Broken_regs.Faulty_plans.lost_release ~reader_fiber:1 in
  let cfg = { Campaign.default with max_steps = 20_000 } in
  match CA.run_plan ~plan ~strategy:(Strategy.random ~seed:11) cfg with
  | exception Failure msg ->
    Alcotest.(check bool) "writer starved of free slots" true
      (contains msg "no free slot")
  | result, reg ->
    Alcotest.(check int) "the drop fired" 1
      result.Campaign.stats.Arc_fault.Fault_mem.drops;
    let slack = RA.Debug.presence_slack reg in
    Alcotest.(check bool)
      (Printf.sprintf "negative ledger slack convicts (slack = %d)" slack)
      true (slack < 0);
    (* ... and the generic audit hook turns that into a violation. *)
    (match PA.audit reg ~crashed_readers:0 ~writer_crashed:false with
    | [] -> Alcotest.fail "audit accepted a lost release"
    | _ -> ())

(* The cas-lie action (ISSUE 7's split-vote forcer), exercised through
   the ambient-fiber identity: the calling context is no vsched fiber
   — exactly the real-process situation the crash campaign's negative
   control runs in. *)
let test_cas_lie_ambient () =
  let module M = Campaign.Mem in
  (* Without an ambient identity, out-of-fiber accesses are fault-free
     even with a plan armed. *)
  M.install (Fault_plan.cas_lie ~fiber:0 ~nth:1 Fault_plan.empty);
  let a = M.atomic 5 in
  Alcotest.(check bool) "no ambient: CAS is honest" true
    (M.compare_and_set a 5 6);
  Alcotest.(check int) "no ambient: CAS applied" 6 (M.load a);
  ignore (M.drain ());
  (* With the ambient identity, the planned lie fires on this
     context's first rmw: success reported, word untouched. *)
  M.install (Fault_plan.cas_lie ~fiber:0 ~nth:1 Fault_plan.empty);
  M.set_ambient_fiber (Some 0);
  Fun.protect
    ~finally:(fun () -> M.set_ambient_fiber None)
    (fun () ->
      let b = M.atomic 5 in
      Alcotest.(check bool) "lying CAS reports success" true
        (M.compare_and_set b 5 9);
      Alcotest.(check int) "…but the word is untouched" 5 (M.load b);
      (* The event is spent: the next CAS is honest again. *)
      Alcotest.(check bool) "next CAS honest" true (M.compare_and_set b 5 9);
      Alcotest.(check int) "honest CAS applied" 9 (M.load b);
      let stats = M.drain () in
      Alcotest.(check int) "the lie was counted" 1
        stats.Arc_fault.Fault_mem.cas_lies)

(* A crash hook ends a real caller AT its planned access (arc-crash
   sets it to SIGKILL the leader), so nothing between the access and
   the top level runs — in particular not [write_guarded]'s guard
   handler, which un-journals the slot.  Whether the crash lands at
   the guard's fence load or at the W2 exchange, the hook must find
   [current] unpublished and the superseded slot journaled: the state
   a successor's [recover_crash] quarantines. *)
module Hook_mem = Arc_fault.Fault_mem.Make (Arc_mem.Real_mem)
module Hook_arc = Arc_core.Arc.Make (Hook_mem)

let test_crash_hook () =
  let crash_at name kind nth =
    let reg = Hook_arc.create ~readers:2 ~capacity:4 ~init:(Array.make 4 0) in
    let fence = Hook_mem.atomic 0 in
    let published = Hook_arc.Debug.current reg in
    let guarded = ref false and seen = ref None in
    let guard () =
      guarded := true;
      ignore (Hook_mem.load fence)
    in
    Hook_mem.set_ambient_fiber (Some 0);
    Hook_mem.set_crash_hook
      (Some
         (fun () ->
           seen :=
             Some
               ( !guarded,
                 Hook_arc.Debug.current reg,
                 Hook_arc.recover_crash reg )));
    Hook_mem.install (Fault_plan.crash ~kind ~fiber:0 ~at_access:nth Fault_plan.empty);
    Fun.protect
      ~finally:(fun () ->
        Hook_mem.set_crash_hook None;
        Hook_mem.set_ambient_fiber None;
        ignore (Hook_mem.drain ()))
      (fun () ->
        match Hook_arc.write_guarded reg ~guard ~src:(Array.make 4 1) ~len:4 with
        | () -> Alcotest.failf "%s: the write completed" name
        | exception Fault_plan.Crashed -> ());
    match !seen with
    | None -> Alcotest.failf "%s: the hook never ran" name
    | Some (guarded, current, journaled) ->
        Alcotest.(check bool) (name ^ ": guard entered") true guarded;
        Alcotest.(check int) (name ^ ": current unchanged") published current;
        Alcotest.(check int) (name ^ ": superseded slot journaled") 1 journaled
  in
  (* A fresh register's first write loads the hint (load 1) and one
     free slot's presence pair (loads 2-3); the guard's is load 4. *)
  crash_at "guard load" `Load 4;
  crash_at "W2 exchange" `Rmw 1

(* A stale register (broken independently of the fault layer) must
   still be convicted when run through the crash-aware campaign. *)
module RS = Broken_regs.Stale (Campaign.Mem)
module CS = Campaign.Make (RS)

let test_stale_register_convicted () =
  let cfg =
    {
      Campaign.default with
      schedules = 5;
      max_crash_readers = 0;
      stall_threads = false;
      crash_writer = false;
    }
  in
  let o = CS.run cfg in
  Alcotest.(check bool) "stale register convicted" true
    (not (Campaign.clean o))

(* {1 Saturation guard at the packed-count boundary} *)

let test_saturation_guard () =
  let init = [| 1; 2; 3; 4 |] in
  let reg = RA.create ~readers:2 ~capacity:4 ~init in
  let rd = RA.reader reg 0 in
  (* Below the bound: a slow-path subscribe that lands the count at
     exactly max_readers (2^32 - 2) is legal... *)
  RA.Debug.force_current reg
    (Packed.make ~index:1 ~count:(Packed.max_readers - 1));
  let _, _ = RA.read_view rd in
  Alcotest.(check int) "count landed on the bound" Packed.max_readers
    (Packed.count (RA.Debug.current reg));
  (* ... the next subscribe would exceed it and must raise, not wrap. *)
  RA.Debug.force_current reg (Packed.make ~index:0 ~count:Packed.max_readers);
  (match RA.read_view rd with
  | exception Arc_core.Register_intf.Saturated msg ->
    Alcotest.(check bool) "error names the bound" true
      (contains msg (string_of_int Packed.max_readers))
  | _ -> Alcotest.fail "increment past 2^32 - 2 must raise Saturated");
  (* A wrap that already happened (count field at the raw maximum, so
     the increment carries into the index bits) is also caught. *)
  let rd2 = RA.reader reg 1 in
  RA.Debug.force_current reg (Packed.make ~index:1 ~count:Packed.max_count);
  match RA.read_view rd2 with
  | exception Arc_core.Register_intf.Saturated _ -> ()
  | _ -> Alcotest.fail "count wraparound must raise Saturated"

(* {1 arc-dynamic: storage reclaim under a crashed reader} *)

let write_seq reg ~len v =
  let src = Array.make len v in
  RD.write reg ~src ~len

let check_reads rd ~len v =
  RD.read_with rd ~f:(fun buf n ->
      Alcotest.(check int) "snapshot length" len n;
      for i = 0 to n - 1 do
        Alcotest.(check int) "snapshot word" v (Campaign.Mem.read_word buf i)
      done)

let test_reclaim_stale () =
  let reg = RD.create ~readers:2 ~capacity:1024 ~init:(Array.make 256 7) in
  let r0 = RD.reader reg 0 in
  let r1 = RD.reader reg 1 in
  check_reads r0 ~len:256 7;
  check_reads r1 ~len:256 7;
  (* r1 now "crashes": it never reads again, pinning slot 0 and its
     256-word buffer forever. *)
  for i = 1 to 6 do
    write_seq reg ~len:256 i;
    check_reads r0 ~len:256 i
  done;
  let before = RD.footprint_words reg in
  Alcotest.(check int) "lease not expired yet: nothing reclaimed" 0
    (RD.reclaim_stale reg ~lease:100);
  let n = RD.reclaim_stale reg ~lease:3 in
  Alcotest.(check int) "exactly the crashed reader's slot reclaimed" 1 n;
  Alcotest.(check int) "reclaimed counter" 1 (RD.reclaimed reg);
  Alcotest.(check int) "footprint dropped by the pinned buffer" (before - 256)
    (RD.footprint_words reg);
  Alcotest.(check int) "reclaim is idempotent" 0 (RD.reclaim_stale reg ~lease:3);
  (* The live reader is unaffected, before and after more writes
     (which may reuse the revoked slot, regrowing its buffer). *)
  check_reads r0 ~len:256 6;
  for i = 7 to 12 do
    write_seq reg ~len:256 i;
    check_reads r0 ~len:256 i
  done;
  (* r1 was merely paused after all: its next read recovers via the
     size-validation handshake — release, resubscribe, current value,
     never reclaimed storage. *)
  check_reads r1 ~len:256 12

let test_auto_reclaim () =
  let reg = RD.create ~readers:2 ~capacity:1024 ~init:(Array.make 512 1) in
  let r0 = RD.reader reg 0 in
  let r1 = RD.reader reg 1 in
  check_reads r0 ~len:512 1;
  check_reads r1 ~len:512 1;
  RD.set_lease reg (Some 2);
  (* r1 silent from here on.  Every 2nd write auto-runs reclaim with
     lease 2, so the pinned 512-word slot is revoked without any
     explicit call. *)
  for i = 1 to 8 do
    write_seq reg ~len:64 i;
    check_reads r0 ~len:64 i
  done;
  Alcotest.(check int) "auto-reclaim revoked the pinned slot" 1
    (RD.reclaimed reg);
  RD.set_lease reg None;
  check_reads r1 ~len:64 8

(* {1 Fault schedules are replayable} *)

(* Record a faulty run's schedule, replay it: the same crashes, tears
   and stalls fire at the same access indices. *)
let test_replay_with_faults () =
  let module P = Arc_workload.Payload.Make (Campaign.Mem) in
  let plan =
    Fault_plan.empty
    |> Fault_plan.crash ~fiber:2 ~at_access:7
    |> Fault_plan.stall ~fiber:0 ~at_access:5 ~steps:120
    |> Fault_plan.tear ~fiber:0 ~at_copy:3 ~at_word:2 ~silent:false
  in
  let run_once strategy =
    let init = Array.make 4 0 in
    P.stamp init ~seq:0 ~len:4;
    let reg = RA.create ~readers:2 ~capacity:4 ~init in
    let reads = ref [] in
    Campaign.Mem.install plan;
    let writer () =
      try
        let src = Array.make 4 0 in
        for seq = 1 to 5 do
          P.stamp src ~seq ~len:4;
          RA.write reg ~src ~len:4
        done
      with Fault_plan.Crashed -> ()
    in
    let reader id () =
      try
        let rd = RA.reader reg id in
        for _ = 1 to 6 do
          RA.read_with rd ~f:(fun buf _len ->
              reads := P.decode_seq buf :: !reads)
        done
      with Fault_plan.Crashed -> ()
    in
    let (_ : Sched.outcome) =
      Sched.run ~strategy [| writer; reader 0; reader 1 |]
    in
    (Campaign.Mem.drain (), !reads)
  in
  let recorder, recording = Replay.recording (Strategy.random ~seed:5) in
  let stats1, reads1 = run_once recording in
  let trace = Replay.captured recorder in
  let replayer, replaying =
    Replay.replaying trace ~fallback:(Strategy.random ~seed:99)
  in
  let stats2, reads2 = run_once replaying in
  Alcotest.(check bool) "replay never diverged" false (Replay.diverged replayer);
  Alcotest.(check bool) "identical fault firings" true (stats1 = stats2);
  Alcotest.(check (list int)) "identical reads" reads1 reads2

(* {1 Watchdog: a hung run becomes a diagnostic failure} *)

module Hang_runner = Arc_harness.Real_runner.Make (Broken_regs.Hang (Arc_mem.Real_mem))
module Arc_runner = Arc_harness.Real_runner.Make (Arc_core.Arc.Make (Arc_mem.Real_mem))

let test_watchdog_kills_hung_run () =
  Broken_regs.Hang_control.arm ();
  let cfg =
    {
      Config.default_real with
      readers = 1;
      size_words = 8;
      duration_s = 0.05;
      parallelism = `Threads;
      watchdog = Some { Config.poll_s = 0.01; grace_s = 0.3 };
    }
  in
  match Hang_runner.run cfg with
  | _ ->
    Broken_regs.Hang_control.free ();
    Alcotest.fail "watchdog did not fire on a hung writer"
  | exception Arc_harness.Real_runner.Hung report ->
    (* Free the leaked worker before judging the report. *)
    Broken_regs.Hang_control.free ();
    Alcotest.(check bool) "report names the stuck writer" true
      (contains report "writer" && contains report "STUCK");
    Alcotest.(check bool) "report shows reader finished" true
      (contains report "reader 0" && contains report "finished")

let test_watchdog_passes_healthy_run () =
  let cfg =
    {
      Config.default_real with
      readers = 2;
      size_words = 32;
      duration_s = 0.05;
      parallelism = `Threads;
      watchdog = Some { Config.poll_s = 0.01; grace_s = 5. };
    }
  in
  let r = Arc_runner.run cfg in
  Alcotest.(check bool) "reads happened" true (r.Config.reads > 0)

(* Satellite: configuration errors name the offending field and value. *)
let test_config_error_messages () =
  let expect_msg part cfg =
    match Arc_runner.run cfg with
    | exception Invalid_argument msg ->
      Alcotest.(check bool)
        (Printf.sprintf "message %S mentions %S" msg part)
        true (contains msg part)
    | _ -> Alcotest.failf "config accepted; expected rejection on %s" part
  in
  expect_msg "readers = 0" { Config.default_real with readers = 0 };
  expect_msg "size_words = -3" { Config.default_real with size_words = -3 };
  expect_msg "duration_s = 0" { Config.default_real with duration_s = 0. };
  expect_msg "record = -1" { Config.default_real with record = -1 };
  expect_msg "grace_s = 0"
    {
      Config.default_real with
      watchdog = Some { Config.poll_s = 0.05; grace_s = 0. };
    }

let suite =
  [
    Alcotest.test_case "campaign: arc (100 schedules)" `Quick test_campaign_arc;
    Alcotest.test_case "campaign: arc-nohint" `Quick test_campaign_arc_nohint;
    Alcotest.test_case "campaign: arc-dynamic" `Quick test_campaign_arc_dynamic;
    Alcotest.test_case "campaign: rf" `Quick test_campaign_rf;
    Alcotest.test_case "campaign: deterministic from seed" `Quick
      test_campaign_deterministic;
    Alcotest.test_case "negative: silent tear convicted" `Quick
      test_silent_tear_convicted;
    Alcotest.test_case "negative: lost release convicted" `Quick
      test_lost_release_convicted;
    Alcotest.test_case "negative: stale register convicted" `Quick
      test_stale_register_convicted;
    Alcotest.test_case "cas-lie under an ambient fiber" `Quick
      test_cas_lie_ambient;
    Alcotest.test_case "crash hook runs at the planned access" `Quick
      test_crash_hook;
    Alcotest.test_case "saturation guard at 2^32-2" `Quick test_saturation_guard;
    Alcotest.test_case "arc-dynamic: reclaim stale slot" `Quick test_reclaim_stale;
    Alcotest.test_case "arc-dynamic: auto-reclaim lease" `Quick test_auto_reclaim;
    Alcotest.test_case "replay: faults replay exactly" `Quick
      test_replay_with_faults;
    Alcotest.test_case "watchdog kills hung run" `Quick test_watchdog_kills_hung_run;
    Alcotest.test_case "watchdog passes healthy run" `Quick
      test_watchdog_passes_healthy_run;
    Alcotest.test_case "config errors name the field" `Quick
      test_config_error_messages;
  ]
