(* CLI reproducing each figure/table of the paper (see DESIGN.md §4
   for the experiment index and EXPERIMENTS.md for recorded results).

     dune exec bin/experiments.exe -- fig1 [--sim] [--quick] [--out DIR]
     dune exec bin/experiments.exe -- all --quick
*)

module Grid = Arc_harness.Grid
module Fig_throughput = Arc_harness.Fig_throughput
module Fig_rmw = Arc_harness.Fig_rmw
module Fig_ablation = Arc_harness.Fig_ablation
module Fig_latency = Arc_harness.Fig_latency
module Series = Arc_report.Series
module Table = Arc_report.Table
open Cmdliner

let opts_term =
  let quick =
    Arg.(value & flag & info [ "quick" ] ~doc:"Shrink grids for a fast smoke run.")
  in
  let reps =
    Arg.(
      value
      & opt (some int) None
      & info [ "reps" ] ~docv:"N" ~doc:"Repetitions per real-mode point.")
  in
  let duration =
    Arg.(
      value
      & opt (some float) None
      & info [ "duration" ] ~docv:"SECONDS" ~doc:"Measured window per point.")
  in
  let steps =
    Arg.(
      value
      & opt (some int) None
      & info [ "steps" ] ~docv:"N" ~doc:"Simulated-step budget per sim point.")
  in
  let seed =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Base random seed.")
  in
  let build quick reps duration steps seed =
    let base = if quick then Grid.quick else Grid.default in
    {
      base with
      Grid.reps = Option.value reps ~default:base.Grid.reps;
      duration_s = Option.value duration ~default:base.Grid.duration_s;
      sim_steps = Option.value steps ~default:base.Grid.sim_steps;
      seed;
    }
  in
  Term.(const build $ quick $ reps $ duration $ steps $ seed)

let out_term =
  Arg.(
    value
    & opt (some string) None
    & info [ "out" ] ~docv:"DIR" ~doc:"Also dump CSV files into $(docv).")

let sim_term =
  Arg.(
    value & flag
    & info [ "sim" ]
        ~doc:
          "Run on the deterministic virtual scheduler instead of real \
           domains/threads.")

let series_cmd name doc ~real ~sim =
  let run opts out sim_mode =
    let data = if sim_mode then sim opts else real opts in
    let stem = name ^ if sim_mode then "_sim" else "_real" in
    Grid.print_series ~out_dir:out ~stem data
  in
  Cmd.v
    (Cmd.info name ~doc)
    Term.(const run $ opts_term $ out_term $ sim_term)

let table_cmd name doc ~(table : Grid.opts -> Table.t) =
  let run opts out =
    let t = table opts in
    Table.print t;
    Grid.dump_csv ~out_dir:out ~name (Table.to_csv t)
  in
  Cmd.v (Cmd.info name ~doc) Term.(const run $ opts_term $ out_term)

let fig1 =
  series_cmd "fig1"
    "Fig. 1 — hold-model throughput vs thread count for 4KB/32KB/128KB registers."
    ~real:Fig_throughput.fig1_real ~sim:Fig_throughput.fig1_sim

let fig2 =
  series_cmd "fig2"
    "Fig. 2 — the virtualized platform: throughput under CPU-steal injection."
    ~real:Fig_throughput.fig2_real ~sim:Fig_throughput.fig2_sim

let fig3 =
  series_cmd "fig3"
    "Fig. 3 — largely-increased thread counts (time-shared); RF excluded."
    ~real:Fig_throughput.fig3_real_threads ~sim:Fig_throughput.fig3_sim

let rmw =
  table_cmd "rmw-table"
    "E4 — measured RMW instructions per operation (the paper's §5 explanation)."
    ~table:Fig_rmw.rmw_table

let ablation =
  table_cmd "ablation-hint"
    "E5 — §3.4 free-slot hint ablation (probes per write, throughput)."
    ~table:Fig_ablation.ablation_hint

let processing =
  let run opts out =
    Grid.print_series ~out_dir:out ~stem:"processing"
      (Fig_throughput.processing_real opts)
  in
  Cmd.v
    (Cmd.info "processing"
       ~doc:"E6 — processing workload (writes generate data, reads scan).")
    Term.(const run $ opts_term $ out_term)

let latency =
  table_cmd "latency"
    "E7 — per-operation read-latency distributions on real domains."
    ~table:Fig_latency.latency_table

let ablation_dynamic =
  table_cmd "ablation-dynamic"
    "E8 — memory footprint of the dynamic-allocation ARC variant (§3.3 note)."
    ~table:Fig_ablation.ablation_dynamic

let coherence =
  table_cmd "coherence-table"
    "E9 — MESI coherence traffic per operation (the paper's interconnect \
     argument, measured)."
    ~table:Arc_harness.Coherence_exp.default_table

let variability =
  table_cmd "variability"
    "Quantify real-mode measurement noise (repeated canonical point)."
    ~table:Fig_latency.variability_table

let run_all opts ~out_dir =
  Printf.printf "platform: %s\n\n" (Arc_util.Cpu.describe ());
  let section name = Printf.printf "==== %s ====\n%!" name in
  let series stem figs = Grid.print_series ~out_dir ~stem figs in
  let table name t =
    Table.print t;
    Grid.dump_csv ~out_dir ~name (Table.to_csv t)
  in
  section "E1 Fig.1 (real)";
  series "fig1_real" (Fig_throughput.fig1_real opts);
  section "E1 Fig.1 (sim)";
  series "fig1_sim" (Fig_throughput.fig1_sim opts);
  section "E2 Fig.2 (real + steal)";
  series "fig2_real" (Fig_throughput.fig2_real opts);
  section "E2 Fig.2 (sim + steal)";
  series "fig2_sim" (Fig_throughput.fig2_sim opts);
  section "E3 Fig.3 (sim, huge thread counts)";
  series "fig3_sim" (Fig_throughput.fig3_sim opts);
  section "E3 Fig.3 (real systhreads)";
  series "fig3_real" (Fig_throughput.fig3_real_threads opts);
  section "E4 RMW table";
  table "rmw_table" (Fig_rmw.rmw_table opts);
  section "E5 hint ablation";
  table "ablation_hint" (Fig_ablation.ablation_hint opts);
  section "E6 processing workload";
  series "processing" (Fig_throughput.processing_real opts);
  section "E7 read-latency distributions";
  table "latency" (Fig_latency.latency_table opts);
  section "E8 dynamic-allocation footprint";
  table "ablation_dynamic" (Fig_ablation.ablation_dynamic opts)

let all =
  let run opts out = run_all opts ~out_dir:out in
  Cmd.v
    (Cmd.info "all" ~doc:"Run every experiment in sequence.")
    Term.(const run $ opts_term $ out_term)

let platform =
  let run () = print_endline (Arc_util.Cpu.describe ()) in
  Cmd.v
    (Cmd.info "platform" ~doc:"Print the platform description used in reports.")
    Term.(const run $ const ())

let () =
  let doc =
    "Reproduce the evaluation of 'A Wait-free Multi-word Atomic (1,N) Register \
     for Large-scale Data Sharing on Multi-core Machines' (CLUSTER 2017)."
  in
  let info = Cmd.info "arc-experiments" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            fig1; fig2; fig3; rmw; ablation; ablation_dynamic; latency; processing;
            coherence; variability; all; platform;
          ]))
