(* Exhaustive bounded exploration: sanity of the enumerator itself,
   then the micro-scenario catalogue — tiny register scenarios judged
   by the Checker over ALL interleavings, the paper's §4 case analyses
   as exhaustively checked facts. *)

module Explore = Arc_vsched.Explore
module Sched = Arc_vsched.Sched
module Scenario = Arc_fault.Scenario
module Mem = Arc_fault.Campaign.Mem
module Fault_plan = Arc_fault.Fault_plan

let check = Alcotest.(check int)

(* Two fibers, each a single cede: schedules = choices at the points
   where both are runnable.  Counting them validates the DFS. *)
let test_enumerates_all_interleavings () =
  let seen = Hashtbl.create 16 in
  let outcome =
    Explore.exhaustive
      ~scenario:(fun () ->
        let log = ref [] in
        let fiber i () =
          log := (2 * i) :: !log;
          Sched.cede ();
          log := (2 * i) + 1 :: !log
        in
        let checkf () = Hashtbl.replace seen (List.rev !log) () in
        ([| fiber 0; fiber 1 |], checkf))
      ()
  in
  Alcotest.(check bool) "exhausted" true outcome.Explore.exhausted;
  (* Interleavings of two 2-event sequences preserving order: C(4,2) = 6. *)
  check "all 6 distinct interleavings observed" 6 (Hashtbl.length seen);
  Alcotest.(check bool) "at least 6 schedules run" true (outcome.Explore.schedules >= 6)

let test_max_schedules_cap () =
  let outcome =
    Explore.exhaustive ~max_schedules:3
      ~scenario:(fun () ->
        let fiber () =
          for _ = 1 to 4 do
            Sched.cede ()
          done
        in
        ([| fiber; fiber; fiber |], fun () -> ()))
      ()
  in
  check "stopped at cap" 3 outcome.Explore.schedules;
  Alcotest.(check bool) "not exhausted" false outcome.Explore.exhausted

(* {1 The catalogue}

   One row per fact: [writes] stamped writes racing [readers] readers
   of [reads] validated reads each, over every schedule (or a DFS
   prefix), or [Seeds] sampled runs under drawn fault plans.
   Single-read rows are Lemma 4.1's race (an untorn, regular value and
   a free slot in every schedule); two-read rows add Criterion 1 (no
   new-old inversion).  Adding a protocol is one row. *)

module Arc = Arc_core.Arc.Make (Mem)
module Ad = Arc_core.Arc_dynamic.Make (Mem)
module Rf = Arc_baselines.Rf.Make (Mem)
module Pt = Arc_baselines.Peterson.Make (Mem)
module Sp = Arc_baselines.Simpson_reg.Make (Mem)
module Torn = Broken_regs.Torn (Mem)

(* Lease 0: anything superseded and still pinned is revoked at once,
   the harshest setting for the reader's size-validation handshake. *)
let reclaim reg = Ad.reclaim_stale reg ~lease:0

(* The write's first copy stops after 2 words and the writer dies. *)
let tear_crash =
  Fault_plan.(tear ~fiber:0 ~at_copy:1 ~at_word:2 ~silent:false empty)

let catalogue =
  Scenario.
    [
      entry "arc write/read race" (arc (module Arc)) ~words:3
        ~control:"unsound register";
      entry "arc no inversion" (arc (module Arc)) ~words:2 ~reads:2;
      entry "arc tear crash" (arc (module Arc)) ~words:4 ~plan:tear_crash;
      entry "dynamic reclaim race" (arc ~epilogue:reclaim (module Ad)) ~words:2;
      (* The two [Prefix] budgets are DFS prefixes of spaces that do not
         exhaust in test time (Peterson's two-buffer copies: ≈10^8). *)
      entry "dynamic reclaim no inversion" (arc ~epilogue:reclaim (module Ad))
        ~words:2 ~reads:2 ~budget:(Prefix 200_000);
      entry "unsound register" (register (module Torn)) ~words:3 ~expect:Convicted;
      entry "rf write/read race" (register (module Rf)) ~words:2;
      entry "rf no inversion" (register (module Rf)) ~words:2 ~reads:2;
      entry "peterson write/read race" (register (module Pt)) ~words:2
        ~budget:(Prefix 150_000);
      entry "simpson write/read race" (register (module Sp)) ~words:2;
      entry "simpson no inversion" (register (module Sp)) ~words:2 ~reads:2;
      (* Two shapes beyond one write racing one reader.  Neither ARC
         row exhausts in test time, so each runs a DFS prefix; the
         same-shaped unsound register is convicted well inside it. *)
      entry "arc two writes" (arc (module Arc)) ~words:2 ~writes:2
        ~budget:(Prefix 500_000) ~control:"unsound two writes";
      entry "unsound two writes" (register (module Torn)) ~words:2 ~writes:2
        ~expect:Convicted;
      entry "arc two readers" (arc (module Arc)) ~words:2 ~readers:2
        ~budget:(Prefix 500_000) ~control:"unsound two readers";
      entry "unsound two readers" (register (module Torn)) ~words:2 ~readers:2
        ~expect:Convicted;
      (* arc-check --faults' rows, sampled: a drawn fault plan and
         schedule per seed. *)
      entry "arc sampled faults" (arc (module Arc)) ~words:16 ~readers:3
        ~budget:(Seeds { runs = 20; steps = 25_000 }) ~control:"unsound sampled";
      entry "unsound sampled" (register (module Torn)) ~words:16 ~readers:3
        ~budget:(Seeds { runs = 20; steps = 25_000 }) ~expect:Convicted;
    ]

let title (e : Scenario.entry) =
  e.name
  ^
  match (e.expect, e.budget) with
  | Convicted, _ -> " convicted exhaustively"
  | Clean, Exhaustive -> " exhaustive"
  | Clean, Prefix _ -> " (bounded DFS)"
  | Clean, Seeds _ -> " sampled"

(* Schedule and conviction counts a row must keep exactly. *)
let pinned = [ ("unsound register", (222, 52)) ]

let test_entry (e : Scenario.entry) () =
  let r = Scenario.run e in
  let t = r.tally in
  Printf.printf "%s: %d schedules, exhausted %b, %d convicted\n" e.name
    t.schedules_run r.exhausted t.convicted;
  if r.verdict <> e.expect then
    Alcotest.failf "%s: %d of %d schedules convicted%s" e.name t.convicted
      t.schedules_run
      (match List.rev t.violations with
      | (s, msg) :: _ -> Printf.sprintf ", first (schedule %d): %s" s msg
      | [] -> "");
  (match e.budget with
  | Exhaustive -> Alcotest.(check bool) "space exhausted" true r.exhausted
  | Prefix n | Seeds { runs = n; _ } -> check "whole budget explored" n t.schedules_run);
  (* One torn-view policy: a torn view is counted and never recorded,
     and every control is convicted on torn views. *)
  check "untorn reads recorded" (t.reads - t.torn) t.recorded;
  if e.expect = Convicted then
    Alcotest.(check bool) "torn views counted" true (t.torn > 0);
  Option.iter
    (fun (schedules, convicted) ->
      check "pinned schedules" schedules t.schedules_run;
      check "pinned convicted" convicted t.convicted)
    (List.assoc_opt e.name pinned);
  (* Non-vacuity: a planned fault fires in every explored schedule (a
     drawn one in some sampled run), and an epilogue both acts and
     finds nothing to do somewhere. *)
  (match e.budget with
  | Seeds _ -> Alcotest.(check bool) "a drawn fault fired" true (t.faulted > 0)
  | Exhaustive | Prefix _ ->
    check "schedules a planned fault fired in"
      (if Fault_plan.size e.plan = 0 then 0 else t.schedules_run)
      t.faulted);
  Option.iter
    (fun n ->
      Alcotest.(check bool)
        (Printf.sprintf "epilogue acted in %d of %d schedules" n t.schedules_run)
        true
        (n > 0 && n < t.schedules_run))
    r.acted;
  Option.iter
    (fun c ->
      match List.find_opt (fun (x : Scenario.entry) -> x.name = c) catalogue with
      | Some x when x.expect = Convicted -> ()
      | _ -> Alcotest.failf "%s: no convicted control %S" e.name c)
    e.control

(* A sampled run is stopped by its deadline and runs no epilogue, so a
   [Seeds] row refuses the settings it would drop. *)
let test_seeds_row_settings () =
  let seeds = Scenario.Seeds { runs = 1; steps = 100 } in
  List.iter
    (fun (what, mk) ->
      match mk () with
      | (_ : Scenario.entry) -> Alcotest.failf "a Seeds row took %s" what
      | exception Invalid_argument _ -> ())
    Scenario.
      [
        ("writes", fun () -> entry "w" (arc (module Arc)) ~words:2 ~writes:2 ~budget:seeds);
        ("reads", fun () -> entry "r" (arc (module Arc)) ~words:2 ~reads:2 ~budget:seeds);
        ( "an epilogue",
          fun () -> entry "e" (arc ~epilogue:reclaim (module Ad)) ~words:2 ~budget:seeds );
      ]

(* {1 One torn-view policy}

   Every reader body counts a view that fails validation and records
   nothing for it, with no further read: over the unsound register,
   each runner counts torn views, and its recorded reads (or fabric
   snapshots) are exactly the untorn ones.  {!test_entry} checks the
   catalogue's rows; these cases check the other two runners. *)

module Sim_torn = Arc_harness.Sim_runner.Make (Broken_regs.Torn (Arc_vsched.Sim_mem))

module Fabric_torn =
  Arc_harness.Fabric_runner.Make (Broken_regs.Torn_stamped (Arc_vsched.Sim_mem))

let test_torn_sim_runner () =
  let r =
    Sim_torn.run
      {
        Arc_harness.Config.default_sim with
        sim_size_words = 8;
        max_steps = 5_000;
        sim_workload = Verify;
        sim_record = 5_000;
      }
  in
  Alcotest.(check bool) "torn views counted" true (r.torn > 0);
  check "untorn reads recorded" (r.reads - r.torn)
    (List.length (Arc_trace.History.reads (Option.get r.history)))

let test_torn_fabric_scanner () =
  let r =
    Fabric_torn.run
      { Arc_harness.Config.default_fabric_sim with fab_size_words = 8; fab_steps = 5_000 }
  in
  Alcotest.(check bool) "torn snapshots counted" true (r.fr_torn > 0);
  check "untorn snapshots recorded" (r.fr_snapshots - r.fr_torn)
    (List.length r.fr_snapshot_obs)

let suite =
  [
    Alcotest.test_case "enumerates all interleavings" `Quick
      test_enumerates_all_interleavings;
    Alcotest.test_case "max_schedules cap" `Quick test_max_schedules_cap;
  ]
  @ List.map (fun e -> Alcotest.test_case (title e) `Quick (test_entry e)) catalogue
  @ [
      Alcotest.test_case "Seeds rows take no writes, reads or epilogue" `Quick
        test_seeds_row_settings;
      Alcotest.test_case "torn views: sim runner" `Quick test_torn_sim_runner;
      Alcotest.test_case "torn views: fabric scanner" `Quick test_torn_fabric_scanner;
    ]
