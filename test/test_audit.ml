(* The latency audit, plus the wait-freedom separation measured
   through recorded histories (the checkable face of Fig. 2/3). *)

module History = Arc_trace.History
module Audit = Arc_trace.Audit
module Stats = Arc_util.Stats
module Config = Arc_harness.Config
module Registry = Arc_harness.Registry
module Strategy = Arc_vsched.Strategy

let ev kind ~seq ~i ~r = History.event kind ~thread:0 ~seq ~invoked:i ~returned:r

let test_stats_basic () =
  let h =
    History.of_events
      [
        ev History.Read ~seq:0 ~i:0 ~r:10;
        ev History.Read ~seq:0 ~i:20 ~r:22;
        ev History.Write ~seq:1 ~i:30 ~r:90;
      ]
  in
  let a = Audit.of_history h in
  let reads = Option.get a.Audit.reads and writes = Option.get a.Audit.writes in
  Alcotest.(check int) "read count" 2 reads.Stats.n;
  Alcotest.(check (float 1e-9)) "read max" 10. reads.Stats.max;
  Alcotest.(check (float 1e-9)) "read mean" 6. reads.Stats.mean;
  Alcotest.(check (float 1e-9)) "write max" 60. writes.Stats.max

let test_stats_empty () =
  let a = Audit.of_history (History.of_events []) in
  Alcotest.(check bool) "no read summary" true (a.Audit.reads = None)

let test_bounded () =
  let h =
    History.of_events
      [ ev History.Read ~seq:0 ~i:0 ~r:5; ev History.Read ~seq:0 ~i:10 ~r:100 ]
  in
  (match Audit.bounded h ~kind:History.Read ~bound:200 with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "bound 200 holds");
  match Audit.bounded h ~kind:History.Read ~bound:50 with
  | Ok () -> Alcotest.fail "bound 50 must fail"
  | Error worst ->
    Alcotest.(check int) "worst offender reported" 90
      (worst.History.returned - worst.History.invoked)

let audited_read_tail name ~steal_writer =
  let entry = Registry.find name in
  let strategy =
    let base = Strategy.round_robin () in
    if steal_writer then
      Strategy.steal_fibers ~seed:4 ~victims:[ 0 ] ~base ~probability:0.2
        ~min_pause:800 ~max_pause:1500
    else base
  in
  let cfg =
    {
      Config.sim_readers = 2;
      sim_size_words = 48;
      max_steps = 40_000;
      sim_workload = Config.Verify;
      sim_record = 6_000;
      sim_seed = 3;
    }
  in
  let result = entry.Registry.run_sim ~strategy cfg in
  let h = Option.get result.Config.history in
  int_of_float (Option.get (Audit.of_history h).Audit.reads).Stats.max

let test_wait_free_read_tail_separation () =
  (* Stealing only the writer: ARC read response time stays near its
     fair-scheduler bound; rwlock reads inherit the multi-hundred-step
     thefts whenever one lands inside the writer's critical section. *)
  let arc = audited_read_tail "arc" ~steal_writer:true in
  let arc_quiet = audited_read_tail "arc" ~steal_writer:false in
  let lock = audited_read_tail "rwlock" ~steal_writer:true in
  Alcotest.(check bool)
    (Printf.sprintf "arc tail stable under theft (%d vs quiet %d)" arc arc_quiet)
    true
    (arc < (4 * arc_quiet) + 200);
  Alcotest.(check bool)
    (Printf.sprintf "rwlock tail (%d) inherits thefts; arc tail (%d) does not" lock
       arc)
    true (lock > 2 * arc)

let suite =
  [
    Alcotest.test_case "stats basic" `Quick test_stats_basic;
    Alcotest.test_case "stats empty" `Quick test_stats_empty;
    Alcotest.test_case "bounded" `Quick test_bounded;
    Alcotest.test_case "wait-free read-tail separation" `Quick
      test_wait_free_read_tail_separation;
  ]
