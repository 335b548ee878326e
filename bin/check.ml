(* arc-check: schedule-exploration harness as a standalone tool.

   Drives a register algorithm through many seeded schedules on the
   virtual scheduler, validating every snapshot word-by-word and
   checking the recorded history against the paper's atomicity
   criterion.  Exit status 0 = clean, 1 = violation found (with the
   seed and strategy to replay it).

     dune exec bin/check.exe -- --algo arc --seeds 100
     dune exec bin/check.exe -- --algo rwlock --strategy steal --readers 7

   --faults switches to the bounded fault campaign (ISSUE 2): every
   wait-free algorithm runs through seeded (schedule, fault-plan)
   pairs — crash-stop readers, stalled threads, torn writer copies,
   crashed writers — judged by the crash-aware checker, the liveness
   checks and (for every ARC variant) the presence-ledger audit, plus a
   silent-tear negative control that must be rejected:

     dune exec bin/check.exe -- --faults --seeds 100
*)

module Config = Arc_harness.Config
module Registry = Arc_harness.Registry
module Fabric_runner = Arc_harness.Fabric_runner
module Checker = Arc_trace.Checker
module Audit = Arc_trace.Audit
module History = Arc_trace.History
module Strategy = Arc_vsched.Strategy
open Cmdliner

let strategy_of ~name ~seed ~fibers ~steps =
  match name with
  | "random" -> Strategy.random ~seed
  | "round-robin" -> Strategy.round_robin ()
  | "burst" -> Strategy.random_burst ~seed ~max_burst:50
  | "steal" ->
    Strategy.steal ~seed
      ~base:(Strategy.random ~seed:(seed + 1))
      ~probability:0.01 ~min_pause:50 ~max_pause:500
  | "pct" -> Strategy.pct ~seed ~fibers ~depth:4 ~expected_steps:steps
  | other -> invalid_arg (Printf.sprintf "unknown strategy %S" other)

(* {1 The --faults campaign}

   Each wait-free algorithm is one sampled catalogue row
   ({!Arc_fault.Scenario}, budget [Seeds]): per derived seed, a random
   sound fault plan and a random schedule, judged like every catalogue
   row.  The tear control is one more row, with a silent tear as its
   own plan. *)

module Campaign = Arc_fault.Campaign
module Scenario = Arc_fault.Scenario
module Fault_plan = Arc_fault.Fault_plan
module RA = Arc_core.Arc.Make (Campaign.Mem)
module RN = Arc_core.Arc_nohint.Make (Campaign.Mem)
module RD = Arc_core.Arc_dynamic.Make (Campaign.Mem)
module RF_reg = Arc_baselines.Rf.Make (Campaign.Mem)
module RP = Arc_baselines.Peterson.Make (Campaign.Mem)
module RS = Arc_baselines.Simpson_reg.Make (Campaign.Mem)

(* The algorithm rows and the tear control, readers clamped to each
   register's bound. *)
let fault_rows ~seeds ~readers ~size ~steps =
  let row ?plan ?expect ?(seeds = seeds) (caps : Arc_core.Register_intf.caps) name
      subject =
    let readers =
      match caps.max_readers ~capacity_words:size with
      | Some bound when readers > bound -> bound
      | _ -> readers
    in
    Scenario.entry name subject ~words:size ~readers ?plan ?expect
      ~budget:(Seeds { runs = seeds; steps })
  in
  let tear =
    Fault_plan.tear ~fiber:0 ~at_copy:2 ~at_word:(max 1 (size / 4)) ~silent:true
      Fault_plan.empty
  in
  ( Scenario.
      [
        row RA.caps "arc" (arc (module RA));
        row RN.caps "arc-nohint" (arc (module RN));
        row RD.caps "arc-dynamic" (arc (module RD));
        row RF_reg.caps "rf" (register (module RF_reg));
        row RP.caps "peterson" (register (module RP));
        row RS.caps "simpson" (register (module RS));
      ],
    row RA.caps "tear-control" ~plan:tear ~expect:Convicted ~seeds:1
      (Scenario.arc (module RA)) )

let fault_replay_command ~name ~readers ~size ~steps ~seed =
  Arc_report.Replay.(
    render ~exe:"dune exec bin/check.exe --"
      [
        flag "--faults";
        str "--algo" name;
        int "--readers" readers;
        int "--size" size;
        int "--steps" steps;
        int "--replay-seed" seed;
      ])

let find_row ?(all = "") rows algo ~what =
  match List.find_opt (fun (e : Scenario.entry) -> e.name = algo) rows with
  | Some e -> e
  | None ->
    Printf.eprintf "%s; known: %s%s\n" what
      (String.concat ", " (List.map (fun (e : Scenario.entry) -> e.name) rows))
      all;
    exit 2

(* Re-execute one derived campaign seed (as printed by a violation
   line) for one algorithm, showing the fault plan it maps to and the
   full judgement. *)
let run_fault_replay algo seed readers size steps =
  let rows, _ = fault_rows ~seeds:1 ~readers ~size ~steps in
  let e =
    find_row rows algo ~what:"--replay-seed needs a single algorithm (--algo)"
  in
  Printf.printf "replaying seed %d on %s (%d readers, %d words, %d steps)\n"
    seed algo e.readers size steps;
  let plan, r, violations = Scenario.replay e ~seed in
  if Fault_plan.size plan = 0 then Printf.printf "fault plan: (empty)\n"
  else Format.printf "fault plan:@,%a@." Fault_plan.pp plan;
  Printf.printf
    "result: %d writes, %d reads, %d torn; writer crashed: %b; stalls %d; %s\n"
    r.Campaign.writes r.Campaign.reads r.Campaign.torn r.Campaign.crashed.(0)
    r.Campaign.stats.Arc_fault.Fault_mem.stalls
    (match r.Campaign.check with
    | Ok (rep, o) ->
      Printf.sprintf "check ok (%d reads, pending write %s)"
        rep.Checker.reads_checked
        (Checker.crash_outcome_name o)
    | Error v -> Format.asprintf "check FAILED: %a" Checker.pp_violation v);
  if violations = [] then Printf.printf "verdict: PASS\n"
  else begin
    List.iter
      (fun (_, msg) -> Printf.printf "violation: %s\n" msg)
      (List.rev violations);
    Printf.printf "verdict: FAIL\n";
    exit 1
  end

let run_faults algo seeds readers size steps =
  Printf.printf
    "fault campaign: %d schedules/algorithm (seed base %d), %d readers, %d \
     words, %d steps\n\n"
    seeds Scenario.seed_base readers size steps;
  Printf.printf "%-14s %9s %11s %6s %5s %8s %11s  %s\n" "algorithm" "schedules"
    "crashes r/w" "stalls" "tears" "reads" "pending v/e" "verdict";
  let rows, control = fault_rows ~seeds ~readers ~size ~steps in
  let rows =
    if algo = "all" then rows
    else
      [
        find_row rows algo ~all:", all"
          ~what:(Printf.sprintf "unknown fault-campaign algorithm %S" algo);
      ]
  in
  let failures = ref 0 in
  let row (e : Scenario.entry) =
    let r = Scenario.run e in
    let o = r.tally in
    let ok = r.verdict = Clean in
    if not ok then incr failures;
    Printf.printf "%-14s %9d %11s %6d %5d %8d %11s  %s\n" e.name
      o.Campaign.schedules_run
      (Printf.sprintf "%d/%d" o.Campaign.reader_crashes o.Campaign.writer_crashes)
      o.Campaign.stalls o.Campaign.tears o.Campaign.reads_checked
      (Printf.sprintf "%d/%d" o.Campaign.vanished o.Campaign.took_effect)
      (if ok then "PASS" else "FAIL");
    Arc_report.Driver.report ~indent:4
      ~replay:(fun seed ->
        fault_replay_command ~name:e.name ~readers ~size ~steps ~seed)
      (List.rev_map (fun (seed, msg) -> (seed, Some msg)) o.Campaign.violations)
  in
  List.iter row rows;
  (* Negative control proving non-vacuity: a silently torn writer copy
     (an unsound fault: the copy stops early yet reports success) must
     be detected as torn views by the readers.  A run that raised
     counts no torn view. *)
  let detected = (Scenario.run control).tally.torn > 0 in
  if not detected then incr failures;
  Printf.printf "%-14s %s\n" "tear-control"
    (if detected then "REJECTED (expected)"
     else "MISSED — fault layer or checker is broken");
  (* A missed tear control is a failure of the campaign itself. *)
  Arc_report.Driver.finish ~failing:!failures ~controls_ok:true

(* {1 The --fabric campaign (ISSUE 6)}

   Every fabric-capable algorithm (discovered by the snapshot_read
   capability, never by name) runs seeded fabric campaigns: writer
   fibers over their owned shards, scanner fibers taking cross-shard
   snapshots, every run judged by the cross-shard checker and against
   the wait-freedom retry bound.  A collect-only negative control must
   be convicted, proving the judgement is not vacuous. *)

let fabric_replay_command ~name ~strategy ~shards ~readers ~size ~steps ~seed =
  Arc_report.Replay.(
    render ~exe:"dune exec bin/check.exe --"
      [
        flag "--fabric";
        str "--algo" name;
        str "--strategy" strategy;
        int "--shards" shards;
        int "--readers" readers;
        int "--size" size;
        int "--steps" steps;
        int "--replay-seed" seed;
      ])

(* [~replay:K] re-runs seed K alone (as printed by a violation line),
   without the negative control. *)
let run_fabric ?replay algo seeds strategy_name shards readers size steps
    metrics =
  let first, last =
    match replay with
    | Some k ->
      Printf.printf "replaying fabric seed %d\n" k;
      (k, k)
    | None -> (1, seeds)
  in
  let eligible = Registry.fabric_capable Registry.all in
  let entries =
    if algo = "all" then eligible
    else
      match List.find_opt (fun e -> e.Registry.name = algo) eligible with
      | Some e -> [ e ]
      | None ->
        Printf.eprintf "algorithm %S is not fabric-capable; eligible: %s, all\n"
          algo
          (String.concat ", " (List.map (fun e -> e.Registry.name) eligible));
        exit 2
  in
  let writers = max 1 (shards / 2) in
  let cfg =
    {
      Config.fab_shards = shards;
      fab_writers = writers;
      fab_scanners = readers;
      fab_size_words = size;
      fab_steps = steps;
      fab_seed = 0;
      fab_atomic = true;
    }
  in
  Printf.printf
    "fabric campaign: %d seeds × %s, %d shards × %d writers × %d scanners, %d \
     words, %d steps\n\n"
    (last - first + 1) strategy_name shards writers readers size steps;
  Printf.printf "%-16s %9s %9s %8s %9s %8s  %s\n" "algorithm" "snapshots"
    "borrowed" "retries" "deposits" "writes" "verdict";
  let failures = ref 0 in
  let retry_cap (r : Fabric_runner.result) =
    (* Public snapshots plus writers' helping scans (one per deposit),
       each allowed at most 2·shards + 3 failed probe passes. *)
    (r.Fabric_runner.fr_snapshots + r.Fabric_runner.fr_deposits)
    * ((2 * shards) + 3)
  in
  let row (entry : Registry.entry) =
    let run = Option.get entry.Registry.run_fabric_sim in
    let snaps = ref 0 and borrowed = ref 0 and retries = ref 0 in
    let deposits = ref 0 and writes = ref 0 in
    let violations = ref [] in
    for seed = first to last do
      let strategy =
        strategy_of ~name:strategy_name ~seed ~fibers:(writers + readers) ~steps
      in
      let r = run ~strategy { cfg with Config.fab_seed = seed } in
      snaps := !snaps + r.Fabric_runner.fr_snapshots;
      borrowed := !borrowed + r.Fabric_runner.fr_borrowed;
      retries := !retries + r.Fabric_runner.fr_retries;
      deposits := !deposits + r.Fabric_runner.fr_deposits;
      writes := !writes + r.Fabric_runner.fr_writes;
      if r.Fabric_runner.fr_torn > 0 then
        violations :=
          (seed,
           Printf.sprintf "%d snapshots with a torn shard" r.Fabric_runner.fr_torn)
          :: !violations;
      if r.Fabric_runner.fr_retries > retry_cap r then
        violations :=
          (seed,
           Printf.sprintf "wait-freedom bound violated: %d retries"
             r.Fabric_runner.fr_retries)
          :: !violations;
      match Fabric_runner.check r with
      | Ok _ -> ()
      | Error v ->
        violations :=
          (seed, Format.asprintf "%a" Checker.pp_fabric_violation v)
          :: !violations
    done;
    let ok = !violations = [] in
    if not ok then incr failures;
    Printf.printf "%-16s %9d %9d %8d %9d %8d  %s\n" entry.Registry.name !snaps
      !borrowed !retries !deposits !writes
      (if ok then "PASS" else "FAIL");
    Arc_report.Driver.report ~indent:4
      ~replay:(fun seed ->
        fabric_replay_command ~name:entry.Registry.name ~strategy:strategy_name
          ~shards ~readers ~size ~steps ~seed)
      (List.rev_map (fun (seed, msg) -> (seed, Some msg)) !violations)
  in
  List.iter row entries;
  if replay = None then begin
    (* Negative control: the collect-only arm of the first eligible
       algorithm must be convicted as a torn snapshot by the checker. *)
    let entry = List.hd entries in
    let run = Option.get entry.Registry.run_fabric_sim in
    let convicted = ref false in
    let control_runs = max 8 (min seeds 32) in
    for seed = 1 to control_runs do
      if not !convicted then
        let r =
          run
            ~strategy:(Strategy.random ~seed)
            { cfg with Config.fab_seed = seed; fab_atomic = false }
        in
        match Fabric_runner.check r with
        | Error (Checker.Torn_snapshot _) -> convicted := true
        | Ok _ | Error _ -> ()
    done;
    if not !convicted then incr failures;
    Printf.printf "%-16s %s\n" "torn-control"
      (if !convicted then "REJECTED (expected)"
       else "MISSED — fabric checker is broken")
  end;
  if metrics then begin
    (* The simulated fabric has no elections, so the reign gauges stay
       at their resting values — printed anyway so the arc_reign_*
       surface is uniform across arc-check/arc-soak/arc-crash. *)
    print_newline ();
    print_string (Arc_obs.Obs.prometheus (Arc_fabric.Fabric.reign_metrics ()))
  end;
  if !failures > 0 then exit 1

(* {1 Offline re-judgement (--history)}

   A persisted history — typically dumped by arc-crash next to a kept
   register mapping — re-run through the crash-aware checker by a
   process that saw none of the original run.  The crash context
   (recovery fence, pending write) comes from the dump's meta lines;
   --shm overrides the fence with the authoritative value persisted in
   the mapping's writer seat named by the dump's [shard] meta line (0
   without one), and cross-checks the mapping generation against the
   dump's, so the dump and the mapping belong to the same crash. *)

let run_history hist_path shm_path =
  let h, meta = History.load hist_path in
  let lookup k = List.assoc_opt k meta in
  let pending_write =
    match (lookup "pending_seq", lookup "pending_invoked") with
    | Some seq, Some invoked -> Some (seq, invoked)
    | _ -> None
  in
  let fence =
    match shm_path with
    | None -> lookup "fence"
    | Some p ->
      let m = Arc_shm.Shm_mem.attach ~path:p in
      let f =
        if Arc_shm.Shm_mem.reign_shards m = 0 then 0
        else
          Arc_shm.Shm_mem.shard_fence_at m
            ~shard:(Option.value ~default:0 (lookup "shard"))
      in
      let e = Arc_shm.Shm_mem.epoch m in
      Printf.printf "shm %s: epoch %d, fence_at %d, %d publishes\n" p e f
        (Arc_shm.Shm_mem.publish_seq m);
      (match lookup "epoch" with
      | Some de when de <> e ->
        Printf.printf
          "note: dump records epoch %d but the mapping is at %d — the mapping \
           was recovered again after this dump\n"
          de e
      | _ -> ());
      Arc_shm.Shm_mem.close m;
      if f > 0 then Some f else None
  in
  Printf.printf "history %s: %d events (%d writes, %d reads), pending %s, fence %s\n"
    hist_path (History.size h)
    (List.length (History.writes h))
    (List.length (History.reads h))
    (match pending_write with
    | Some (seq, invoked) -> Printf.sprintf "write %d invoked at %d" seq invoked
    | None -> "none")
    (match fence with Some f -> string_of_int f | None -> "none");
  match Checker.check_crash ?pending_write ?fence h with
  | Ok (report, outcome) ->
    Printf.printf "check ok: %d reads, %d writes, pending write %s\n"
      report.Checker.reads_checked report.Checker.writes_checked
      (Checker.crash_outcome_name outcome)
  | Error v ->
    Format.printf "check FAILED: %a@." Checker.pp_violation v;
    exit 1

let rec run faults fabric shards replay_seed history shm algo seeds strategy_name
    readers size steps verbose metrics =
  match (history, replay_seed) with
  | Some hist_path, _ -> run_history hist_path shm
  | None, Some seed when fabric ->
    run_fabric ~replay:seed
      (Option.value algo ~default:"all")
      seeds strategy_name shards readers size steps metrics
  | None, Some seed ->
    run_fault_replay (Option.value algo ~default:"arc") seed readers size steps
  | None, None when fabric ->
    (* Fabric campaigns default to every fabric-capable algorithm. *)
    run_fabric
      (Option.value algo ~default:"all")
      seeds strategy_name shards readers size steps metrics
  | None, None ->
    (* The default algorithm set differs per mode: single-algorithm
       schedule checks default to arc, the fault campaign to all. *)
    let algo = Option.value algo ~default:(if faults then "all" else "arc") in
    run_checks faults algo seeds strategy_name readers size steps verbose metrics

and run_checks faults algo seeds strategy_name readers size steps verbose metrics
    =
  if faults then begin
    if metrics then
      Printf.eprintf "note: --metrics applies to schedule checks, not --faults\n";
    run_faults algo seeds readers size steps
  end
  else if algo = "all" then
    List.iter
      (fun name ->
        run_checks false name seeds strategy_name readers size steps verbose
          metrics)
      Registry.names
  else run_one algo seeds strategy_name readers size steps verbose metrics

and run_one algo seeds strategy_name readers size steps verbose metrics =
  let entry =
    try Registry.find algo
    with Not_found ->
      Printf.eprintf "unknown algorithm %S; known: %s, all\n" algo
        (String.concat ", " Registry.names);
      exit 2
  in
  let readers =
    match entry.Registry.caps.Arc_core.Register_intf.max_readers ~capacity_words:size with
    | Some bound when readers > bound ->
      Printf.printf "note: %s supports at most %d readers; clamping\n" algo bound;
      bound
    | _ -> readers
  in
  let violations = ref 0 in
  let total_reads = ref 0 in
  let worst_read = ref 0 in
  let last_metrics = ref [] in
  for seed = 1 to seeds do
    let cfg =
      {
        Config.sim_readers = readers;
        sim_size_words = size;
        max_steps = steps;
        sim_workload = Config.Verify;
        sim_record = 8_000;
        sim_seed = seed;
      }
    in
    let strategy =
      strategy_of ~name:strategy_name ~seed ~fibers:(readers + 1) ~steps
    in
    let result =
      match (metrics, entry.Registry.run_sim_telemetry) with
      | true, Some f ->
        let r, ms = f ~strategy cfg in
        last_metrics := ms;
        r
      | _ -> entry.Registry.run_sim ~strategy cfg
    in
    total_reads := !total_reads + result.Config.reads;
    let fail fmt =
      Printf.ksprintf
        (fun msg ->
          incr violations;
          Printf.printf "VIOLATION [seed %d, strategy %s]: %s\n" seed strategy_name
            msg)
        fmt
    in
    if result.Config.torn > 0 then fail "%d torn snapshots" result.Config.torn;
    (match result.Config.history with
    | None -> ()
    | Some h ->
      (match Checker.check h with
      | Ok report ->
        if verbose then
          Printf.printf
            "seed %3d: ok — %d reads (%d fast-path candidates), %d writes\n" seed
            report.Checker.reads_checked report.Checker.fast_path_candidates
            report.Checker.writes_checked
      | Error v -> fail "%s" (Format.asprintf "%a" Checker.pp_violation v));
      Option.iter
        (fun (s : Arc_util.Stats.summary) ->
          worst_read := max !worst_read (int_of_float s.max))
        (Audit.of_history h).Audit.reads)
  done;
  Printf.printf
    "%s: %d seeds × %s, %d reads checked, worst read duration %d steps — %s\n" algo
    seeds strategy_name !total_reads !worst_read
    (if !violations = 0 then "CLEAN" else Printf.sprintf "%d VIOLATIONS" !violations);
  if metrics then
    if !last_metrics = [] then
      Printf.printf "# no telemetry surface for algorithm %s\n" algo
    else begin
      (* Register telemetry of the final explored schedule (each seed
         runs a fresh register, so cumulative output would just sum
         identically-shaped runs). *)
      Printf.printf "# telemetry of seed %d (the final schedule)\n" seeds;
      print_string (Arc_obs.Obs.prometheus !last_metrics)
    end;
  if !violations > 0 then exit 1

let cmd =
  let algo =
    Arg.(
      value & opt (some string) None
      & info [ "algo" ] ~docv:"NAME"
          ~doc:
            "Algorithm, or \"all\" (default: arc for schedule checks, all \
             for --faults).")
  in
  let seeds =
    Arg.(value & opt int 50 & info [ "seeds" ] ~docv:"N" ~doc:"Schedules to explore.")
  in
  let strategy =
    Arg.(
      value & opt string "random"
      & info [ "strategy" ] ~docv:"S"
          ~doc:"Scheduling strategy: random, round-robin, burst, steal, pct.")
  in
  let readers =
    Arg.(value & opt int 3 & info [ "readers" ] ~docv:"N" ~doc:"Reader fibers.")
  in
  let size =
    Arg.(value & opt int 16 & info [ "size" ] ~docv:"WORDS" ~doc:"Snapshot words.")
  in
  let steps =
    Arg.(
      value & opt int 25_000
      & info [ "steps" ] ~docv:"N" ~doc:"Simulated steps per schedule.")
  in
  let verbose = Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Per-seed lines.") in
  let metrics =
    Arg.(
      value & flag
      & info [ "metrics" ]
          ~doc:
            "After the schedule checks, print the register telemetry of the \
             final explored schedule as a Prometheus-style text dump \
             (fast/slow reads per reader, hint hits, write probes, trace \
             volume).  Only the ARC family has a telemetry surface.")
  in
  let faults =
    Arg.(
      value & flag
      & info [ "faults" ]
          ~doc:
            "Run the bounded fault campaign (crash-stop readers, stalls, torn \
             copies, writer crashes) across the wait-free algorithms and print \
             a pass/fail table; exit 1 on any violation or a missed negative \
             control.")
  in
  let fabric =
    Arg.(
      value & flag
      & info [ "fabric" ]
          ~doc:
            "Run the sharded-fabric snapshot campaign (ISSUE 6) across every \
             fabric-capable algorithm (discovered via the snapshot_read \
             capability): seeded adversarial schedules judged by the \
             cross-shard checker and the wait-freedom retry bound, plus a \
             collect-only negative control that must be convicted; exit 1 on \
             any violation.  --readers sets the scanner count.")
  in
  let shards =
    Arg.(
      value & opt int 4
      & info [ "shards" ] ~docv:"N"
          ~doc:"With --fabric: shard count (writers = max 1 (shards/2)).")
  in
  let replay_seed =
    Arg.(
      value & opt (some int) None
      & info [ "replay-seed" ] ~docv:"SEED"
          ~doc:
            "Re-execute one fault-campaign schedule from its derived seed (as \
             printed by a --faults violation line) for the algorithm given \
             with --algo, showing its fault plan and full judgement.  With \
             --fabric, re-run fabric seed SEED for --algo (default: every \
             fabric-capable algorithm) under --strategy, --shards, \
             --readers, --size and --steps.")
  in
  let history =
    Arg.(
      value & opt (some file) None
      & info [ "history" ] ~docv:"FILE"
          ~doc:
            "Re-judge a persisted history (History.dump format, e.g. the \
             .history file arc-crash keeps next to a failing mapping) through \
             the crash-aware checker, taking the pending write and fence from \
             its meta lines; exit 1 on violation.")
  in
  let shm =
    Arg.(
      value & opt (some file) None
      & info [ "shm" ] ~docv:"FILE"
          ~doc:
            "With --history: read the authoritative recovery fence (of the \
             writer seat named by the dump's $(b,shard) meta line, 0 \
             without one) and epoch from this register mapping instead of \
             the dump's meta lines.")
  in
  Cmd.v
    (Cmd.info "arc-check"
       ~doc:
         "Explore schedules of a register algorithm and check atomicity \
          (Criterion 1) plus snapshot integrity; --faults runs the \
          fault-injection campaign instead; --fabric runs the cross-shard \
          snapshot campaign; --history re-judges a persisted cross-process \
          history.")
    Term.(
      const run $ faults $ fabric $ shards $ replay_seed $ history $ shm $ algo
      $ seeds $ strategy $ readers $ size $ steps $ verbose $ metrics)

let () = exit (Cmd.eval cmd)
