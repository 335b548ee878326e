(* arc-soak: chaos soak for the supervised register service (ISSUE 3).

   Long randomized crash/stall/tear runs over the full resilience
   stack — epoch-fenced writer failover, deadline-aware reader
   sessions, circuit-breaker degradation — on the virtual scheduler,
   each run judged for torn snapshots, crash-aware atomicity (the
   promotion time as the fence), bounded staleness of degraded serves,
   liveness, and the ARC presence-ledger audit; plus the unfenced
   negative control that must be convicted.

     dune exec bin/soak.exe -- --runs 200
     dune exec bin/soak.exe -- --replay 2025002025042 --verbose

   Exit status 0 = clean (and the negative control convicted);
   1 = violations (each printed with the exact replay command);
   2 = the unfenced control went unconvicted (the fence is vacuous).

   A failing soak also writes the replay commands to --fail-log (if
   given) so CI can upload them as an artifact. *)

module Soak = Arc_resilience.Soak
module Outcomes = Arc_util.Stats.Outcomes
module Driver = Arc_report.Driver
open Cmdliner

let cfg_of runs seed readers size steps lease deadline max_stale crash_readers =
  {
    Soak.runs;
    seed;
    readers;
    size_words = size;
    max_steps = steps;
    lease;
    deadline;
    max_stale;
    max_crash_readers = crash_readers;
  }

let print_report ~verbose (r : Soak.run_report) =
  if verbose || r.violations <> [] then begin
    Printf.printf
      "run [seed %d]: fate=%s flaky=%.2f writes=%d (standby %d) failovers=%d \
       fenced=%d reader-crashes=%d stalls=%d tears=%d serves-checked=%d %s— %s\n"
      r.seed r.fate r.flaky_rate r.writes r.standby_writes r.failovers
      r.fenced_writes r.reader_crashes r.stalls r.tears r.serves_checked
      (Format.asprintf "[%a] " Outcomes.pp r.outcomes)
      (if r.violations = [] then "ok"
       else String.concat "; " r.violations);
    if verbose && Arc_fault.Fault_plan.size r.plan > 0 then
      Format.printf "  plan:@,%a@." Arc_fault.Fault_plan.pp r.plan
  end

let run_replay seed cfg verbose =
  Printf.printf "replaying seed %d\n" seed;
  let r = Soak.run_one ~seed cfg in
  print_report ~verbose:true r;
  ignore verbose;
  if r.violations <> [] then exit 1

(* {1 Churn mode (ISSUE 8): --churn RATE} *)

let print_churn_report ~verbose (r : Soak.churn_report) =
  if verbose || r.cviolations <> [] then
    Printf.printf
      "churn [seed %d]: arrivals=%d admitted=%d backpressured=%d departed=%d \
       evicted=%d abandoned=%d lane-crashes=%d writes=%d high-water=%d \
       live-buffers-max=%d refused-serves=%d %s— %s\n"
      r.cseed r.arrivals r.cadmitted r.cbackpressured r.cdeparted r.cevicted
      r.abandoned r.lane_crashes r.cwrites r.chigh_water r.live_buffers_max
      r.refused_serves
      (Format.asprintf "[%a] " Outcomes.pp r.coutcomes)
      (if r.cviolations = [] then "ok" else String.concat "; " r.cviolations)

let run_churn_replay seed (ccfg : Soak.churn_cfg) =
  Printf.printf "replaying churn seed %d\n" seed;
  let join = Arc_util.Histogram.create () in
  let leave = Arc_util.Histogram.create () in
  let r = Soak.run_churn_one ~seed ~join ~leave ccfg in
  print_churn_report ~verbose:true r;
  if r.cviolations <> [] then exit 1

(* Live progress: at most one cumulative line per wall-clock second,
   so long CI soaks show a heartbeat without the per-run flood of
   --verbose. *)
let heartbeat ~verbose =
  let last_tick = ref (Unix.gettimeofday ()) in
  fun print ->
    let now = Unix.gettimeofday () in
    if (not verbose) && now -. !last_tick >= 1.0 then begin
      last_tick := now;
      print ()
    end

(* Both campaigns end alike: each violation with its replay command,
   the fail log, the negative control, the exit status. *)
let conclude ?fail_log ~replay ~skip_control ~control ~label ~unconvicted
    violations =
  let failing = List.rev violations in
  Driver.report ?fail_log ~replay
    (List.map (fun (seed, msg) -> (seed, Some msg)) failing);
  let controls_ok =
    skip_control
    ||
    let convicted, reasons = control () in
    Driver.control label ~convicted ~expected:(String.concat "; " reasons)
      ~unconvicted
  in
  Driver.finish ~failing:(List.length failing) ~controls_ok

let run_churn_soak (ccfg : Soak.churn_cfg) verbose fail_log skip_control metrics
    =
  let done_runs = ref 0
  and live_arrivals = ref 0
  and live_admitted = ref 0
  and live_bp = ref 0
  and live_bad = ref 0 in
  let tick = heartbeat ~verbose in
  let on_run (r : Soak.churn_report) =
    incr done_runs;
    live_arrivals := !live_arrivals + r.arrivals;
    live_admitted := !live_admitted + r.cadmitted;
    live_bp := !live_bp + r.cbackpressured;
    if r.cviolations <> [] then incr live_bad;
    tick (fun () ->
        Printf.printf
          "[churn] %d/%d runs, %d arrivals -> %d admitted / %d backpressured, \
           %d failing\n\
           %!"
          !done_runs ccfg.Soak.base.Soak.runs !live_arrivals !live_admitted
          !live_bp !live_bad);
    print_churn_report ~verbose r
  in
  let o = Soak.run_churn ~on_run ccfg in
  Format.printf "%a@." Soak.pp_churn_outcome o;
  if metrics then print_string (Arc_obs.Obs.prometheus (Soak.churn_metrics o));
  conclude ?fail_log ~skip_control
    ~replay:(fun seed -> Soak.churn_replay_command ~seed ccfg)
    ~control:(fun () ->
      Soak.churn_control ~seed:(Soak.derive_seed ccfg.Soak.base 0) ccfg)
    ~label:"gate-bypass control"
    ~unconvicted:"the admission gate is not load-bearing"
    o.Soak.churn_violations

let run_soak (cfg : Soak.cfg) verbose fail_log skip_control metrics =
  let done_runs = ref 0
  and live_writes = ref 0
  and live_fresh = ref 0
  and live_stale = ref 0
  and live_bad = ref 0 in
  let tick = heartbeat ~verbose in
  let on_run (r : Soak.run_report) =
    incr done_runs;
    live_writes := !live_writes + r.writes + r.standby_writes;
    live_fresh := !live_fresh + Outcomes.ok_count r.outcomes;
    live_stale := !live_stale + Outcomes.stale_count r.outcomes;
    if r.violations <> [] then incr live_bad;
    tick (fun () ->
        Printf.printf
          "[soak] %d/%d runs, %d writes, %d fresh / %d stale reads, %d \
           failing\n\
           %!"
          !done_runs cfg.Soak.runs !live_writes !live_fresh !live_stale
          !live_bad);
    print_report ~verbose r
  in
  let o = Soak.run ~on_run cfg in
  Format.printf "%a@." Soak.pp_outcome o;
  if metrics then
    print_string
      (Arc_obs.Obs.prometheus
         (Soak.metrics o
         @ Arc_resilience.Election.metrics ()
         @ Arc_fabric.Fabric.reign_metrics ()));
  conclude ?fail_log ~skip_control
    ~replay:(fun seed -> Soak.replay_command ~seed cfg)
    ~control:(fun () ->
      Soak.unfenced_control ~seed:(Soak.derive_seed cfg 0) cfg)
    ~label:"unfenced-control"
    ~unconvicted:"the epoch fence is not load-bearing" o.Soak.violations

let run runs seed readers size steps lease deadline max_stale crash_readers
    churn gate lanes room crash_frac replay verbose fail_log skip_control
    metrics =
  let cfg =
    cfg_of runs seed readers size steps lease deadline max_stale crash_readers
  in
  match churn with
  | Some rate -> (
    let ccfg =
      {
        Soak.base = cfg;
        rate;
        gate_capacity = gate;
        lanes;
        waiting_room = room;
        crash_frac;
      }
    in
    match replay with
    | Some s -> run_churn_replay s ccfg
    | None -> run_churn_soak ccfg verbose fail_log skip_control metrics)
  | None -> (
    match replay with
    | Some s -> run_replay s cfg verbose
    | None -> run_soak cfg verbose fail_log skip_control metrics)

let cmd =
  let runs =
    Arg.(value & opt int 50 & info [ "runs" ] ~docv:"N" ~doc:"Soak runs.")
  in
  let seed =
    Arg.(value & opt int 2025 & info [ "seed" ] ~docv:"N" ~doc:"Base seed.")
  in
  let readers =
    Arg.(value & opt int 3 & info [ "readers" ] ~docv:"N" ~doc:"Reader sessions.")
  in
  let size =
    Arg.(value & opt int 16 & info [ "size" ] ~docv:"WORDS" ~doc:"Snapshot words.")
  in
  let steps =
    Arg.(
      value & opt int 30_000
      & info [ "steps" ] ~docv:"N" ~doc:"Simulated steps per run.")
  in
  let lease =
    Arg.(
      value & opt int 2_000
      & info [ "lease" ] ~docv:"STEPS" ~doc:"Writer lease (heartbeat timeout).")
  in
  let deadline =
    Arg.(
      value & opt int 1_500
      & info [ "deadline" ] ~docv:"STEPS" ~doc:"Per-read deadline.")
  in
  let max_stale =
    Arg.(
      value & opt int 6_000
      & info [ "max-stale" ] ~docv:"STEPS"
          ~doc:"Oldest snapshot a degraded read may serve.")
  in
  let crash_readers =
    Arg.(
      value & opt int 2
      & info [ "crash-readers" ] ~docv:"N" ~doc:"Max reader crashes per run.")
  in
  let churn =
    Arg.(
      value & opt (some float) None
      & info [ "churn" ] ~docv:"RATE"
          ~doc:
            "Run the reader-churn campaign instead of the failover soak: \
             short-lived readers arrive on each lane with probability RATE \
             per scheduling point, admitted through the gate, and depart or \
             abandon their ticket (lease sweep evicts).")
  in
  let gate =
    Arg.(
      value & opt int 4
      & info [ "gate" ] ~docv:"N"
          ~doc:"Admission-gate capacity (reader identities leased out).")
  in
  let lanes =
    Arg.(
      value & opt int 6
      & info [ "lanes" ] ~docv:"N" ~doc:"Concurrent churner lanes.")
  in
  let room =
    Arg.(
      value & opt int 2
      & info [ "room" ] ~docv:"N"
          ~doc:"Bounded waiting-room size for refused arrivals.")
  in
  let crash_frac =
    Arg.(
      value & opt float 0.3
      & info [ "crash-frac" ] ~docv:"F"
          ~doc:
            "Fraction of tenancies that abandon their ticket without \
             departing (kill -9 model).")
  in
  let replay =
    Arg.(
      value & opt (some int) None
      & info [ "replay" ] ~docv:"SEED"
          ~doc:"Replay one run seed (as printed by a failing soak) and exit.")
  in
  let verbose = Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Per-run lines.") in
  let fail_log =
    Arg.(
      value & opt (some string) None
      & info [ "fail-log" ] ~docv:"PATH"
          ~doc:"Write failing-seed replay commands to this file (CI artifact).")
  in
  let skip_control =
    Arg.(
      value & flag
      & info [ "skip-control" ] ~doc:"Skip the unfenced negative control.")
  in
  let metrics =
    Arg.(
      value & flag
      & info [ "metrics" ]
          ~doc:
            "After the soak, print the aggregated campaign counters (runs, \
             writes, degraded serves, crashes, fence rejections, tears) as a \
             Prometheus-style text dump.")
  in
  Cmd.v
    (Cmd.info "arc-soak"
       ~doc:
         "Chaos-soak the supervised register service: randomized writer \
          crashes, zombies, stalls and reader faults over epoch-fenced \
          failover, deadline reads and breaker degradation, with crash-aware \
          atomicity and bounded-staleness checking.")
    Term.(
      const run $ runs $ seed $ readers $ size $ steps $ lease $ deadline
      $ max_stale $ crash_readers $ churn $ gate $ lanes $ room $ crash_frac
      $ replay $ verbose $ fail_log $ skip_control $ metrics)

let () = exit (Cmd.eval cmd)
