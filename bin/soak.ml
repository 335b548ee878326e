(* arc-soak: chaos soak for the supervised register service (ISSUE 3).

   Long randomized crash/stall/tear runs over epoch-fenced writer
   failover and reader sessions on the virtual scheduler, each run
   judged for torn snapshots, crash-aware atomicity (the promotion time
   as the fence), liveness, and the ARC presence-ledger audit; plus
   the unfenced negative control that must be convicted.  [--churn
   RATE] runs the reader-churn mode instead — readers admitted through
   a gate whose revoked tickets get bounded-stale serves, judged for
   staleness too — with the gate-bypass control.

     dune exec bin/soak.exe -- --runs 200
     dune exec bin/soak.exe -- --replay 2025006082 --verbose
     dune exec bin/soak.exe -- --churn 0.02 --replay 2025006082

   Exit status 0 = clean (and the negative control convicted);
   1 = violations (each printed with the exact replay command);
   2 = the negative control went unconvicted (the fence or the gate is
   vacuous); 124 = a configuration no run could use.

   A failing soak also writes the replay commands to --fail-log (if
   given) so CI can upload them as an artifact. *)

module Soak = Arc_resilience.Soak
module Outcomes = Arc_obs.Obs.Outcomes
module Driver = Arc_report.Driver
open Cmdliner

(* The run lines, printed under --verbose and for every failing run. *)

let verdict (r : _ Soak.report) =
  if r.violations = [] then "ok" else String.concat "; " r.violations

let print_failover ~verbose r (s : Soak.failover Soak.stats) =
  let m = s.mode in
  Printf.printf
    "run [seed %d]: fate=%s writes=%d (standby %d) failovers=%d fenced=%d \
     reader-crashes=%d stalls=%d tears=%d fresh=%d — %s\n"
    r.Soak.seed m.fate s.writes m.standby_writes m.failovers m.fenced_writes
    s.crashes m.stalls m.tears
    (Outcomes.ok_count s.outcomes)
    (verdict r);
  if verbose && Arc_fault.Fault_plan.size m.plan > 0 then
    Format.printf "  plan:@,%a@." Arc_fault.Fault_plan.pp m.plan

let print_churn ~verbose:_ r (s : Soak.churn Soak.stats) =
  let m = s.mode in
  Printf.printf
    "churn [seed %d]: arrivals=%d admitted=%d backpressured=%d departed=%d \
     evicted=%d abandoned=%d lane-crashes=%d writes=%d high-water=%d \
     live-buffers-max=%d refused-serves=%d %s— %s\n"
    r.Soak.seed m.arrivals m.admitted m.backpressured m.departed m.evicted
    m.abandoned s.crashes s.writes m.high_water m.live_buffers_max
    m.refused_serves
    (Format.asprintf "[%a] " Outcomes.pp s.outcomes)
    (verdict r)

(* Either mode, either way: replay one seed, or run the campaign and
   end with its summary, metrics, violations with their replay
   commands, the fail log, the negative control and the exit status. *)
let soak (cfg : Soak.cfg) ~run_one ~line ~progress ~summary ~metrics
    ~replay_command ~control ~label ~unconvicted ~replaying replay verbose
    fail_log skip_control show_metrics =
  let print ~verbose (r : _ Soak.report) =
    if verbose || r.violations <> [] then Option.iter (line ~verbose r) r.stats
  in
  match replay with
  | Some seed ->
    Printf.printf "%s %d\n" replaying seed;
    let r = run_one ~seed in
    print ~verbose:true r;
    if r.violations <> [] then exit 1
  | None ->
    (* Live progress: at most one cumulative line per wall-clock
       second, so long CI soaks show a heartbeat without the per-run
       flood of --verbose. *)
    let seen = ref [] and last_tick = ref (Unix.gettimeofday ()) in
    let on_run r =
      seen := r :: !seen;
      let now = Unix.gettimeofday () in
      if (not verbose) && now -. !last_tick >= 1.0 then begin
        last_tick := now;
        Printf.printf "%s, %d failing\n%!" (progress !seen) (Soak.failing !seen)
      end;
      print ~verbose r
    in
    let reports = Soak.campaign ~on_run cfg run_one in
    Format.printf "%a@." summary reports;
    if show_metrics then print_string (Arc_obs.Obs.prometheus (metrics reports));
    let violations = Soak.violations reports in
    Driver.report ?fail_log ~replay:replay_command
      (List.map (fun (seed, msg) -> (seed, Some msg)) violations);
    let controls_ok =
      skip_control
      ||
      let convicted, reasons = control () in
      Driver.control label ~convicted ~expected:(String.concat "; " reasons)
        ~unconvicted
    in
    Driver.finish ~failing:(List.length violations) ~controls_ok

let run runs seed readers size steps lease deadline max_stale crash_readers
    churn gate lanes room crash_frac replay verbose fail_log skip_control
    metrics =
  let cfg =
    {
      Soak.runs;
      seed;
      readers;
      size_words = size;
      max_steps = steps;
      lease;
      max_crash_readers = crash_readers;
    }
  in
  let control_seed = Soak.derive_seed cfg 0 in
  let usage check =
    try check ()
    with Invalid_argument msg ->
      prerr_endline ("arc-soak: " ^ msg);
      exit 124
  in
  match churn with
  | None ->
    usage (fun () ->
        Soak.check_cfg cfg;
        let churn_only flag v =
          if v <> None then invalid_arg (flag ^ ": only with --churn")
        in
        churn_only "--deadline" deadline;
        churn_only "--max-stale" max_stale);
    soak cfg
      ~run_one:(fun ~seed -> Soak.run_one ~seed cfg)
      ~line:print_failover
      ~progress:(fun rs ->
        Printf.sprintf "[soak] %d/%d runs, %d writes, %d fresh reads"
          (List.length rs) runs (Soak.writes rs) (Soak.fresh rs))
      ~summary:Soak.pp_summary
      ~metrics:(fun rs ->
        Soak.metrics rs
        @ Arc_resilience.Election.metrics ()
        @ Arc_fabric.Fabric.reign_metrics ())
      ~replay_command:(fun seed -> Soak.replay_command ~seed cfg)
      ~control:(fun () -> Soak.unfenced_control ~seed:control_seed cfg)
      ~label:"unfenced-control" ~unconvicted:"the epoch fence is not load-bearing"
      ~replaying:"replaying seed" replay verbose fail_log skip_control metrics
  | Some rate ->
    let ccfg =
      {
        Soak.base = cfg;
        rate;
        gate_capacity = gate;
        lanes;
        waiting_room = room;
        crash_frac;
        deadline = Option.value deadline ~default:Soak.default_churn.deadline;
        max_stale = Option.value max_stale ~default:Soak.default_churn.max_stale;
      }
    in
    usage (fun () -> Soak.check_churn_cfg ccfg);
    soak cfg
      ~run_one:(fun ~seed -> Soak.run_churn_one ~seed ccfg)
      ~line:print_churn
      ~progress:(fun rs ->
        Printf.sprintf
          "[churn] %d/%d runs, %d arrivals -> %d admitted / %d backpressured"
          (List.length rs) runs (Soak.arrivals rs) (Soak.admitted rs)
          (Soak.backpressured rs))
      ~summary:Soak.pp_churn_summary ~metrics:Soak.churn_metrics
      ~replay_command:(fun seed -> Soak.churn_replay_command ~seed ccfg)
      ~control:(fun () -> Soak.churn_control ~seed:control_seed ccfg)
      ~label:"gate-bypass control"
      ~unconvicted:"the admission gate is not load-bearing"
      ~replaying:"replaying churn seed" replay verbose fail_log skip_control
      metrics

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
      value & opt (some int) None
      & info [ "deadline" ] ~docv:"STEPS"
          ~doc:
            (Printf.sprintf
               "How long a refused churn arrival may wait in the room \
                (default %d; --churn only)."
               Soak.default_churn.deadline))
  in
  let max_stale =
    Arg.(
      value & opt (some int) None
      & info [ "max-stale" ] ~docv:"STEPS"
          ~doc:
            (Printf.sprintf
               "Oldest snapshot a refused churn read may serve (default %d; \
                --churn only)."
               Soak.default_churn.max_stale))
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
             writes, reads, crashes, fence rejections, tears) as a \
             Prometheus-style text dump.")
  in
  Cmd.v
    (Cmd.info "arc-soak"
       ~doc:
         "Chaos-soak the supervised register service: randomized writer \
          crashes, zombies, stalls and reader faults over epoch-fenced \
          failover, or reader churn through an admission gate with \
          bounded-stale serves, with crash-aware atomicity and \
          bounded-staleness checking.")
    Term.(
      const run $ runs $ seed $ readers $ size $ steps $ lease $ deadline
      $ max_stale $ crash_readers $ churn $ gate $ lanes $ room $ crash_frac
      $ replay $ verbose $ fail_log $ skip_control $ metrics)

let () = exit (Cmd.eval cmd)
