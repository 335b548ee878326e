(** E7: operation-latency distributions on real domains — the
    per-operation face of wait-freedom (complements the paper's
    throughput-only reporting) — plus the measurement-noise
    quantification table. *)

module Table = Arc_report.Table
module RI = Arc_core.Register_intf
module Stats = Arc_util.Stats

let latency_table (opts : Grid.opts) =
  let table =
    Table.create
      ~title:
        "E7 — read latency distribution on real domains (Verify workload, \
         3 readers, 4KB register; microseconds)"
      ~columns:[ "algorithm"; "reads"; "mean µs"; "p50 µs"; "p99.9 µs"; "max µs" ]
  in
  List.iter
    (fun (entry : Registry.entry) ->
      let readers =
        match entry.Registry.caps.RI.max_readers ~capacity_words:512 with
        | Some bound -> min bound 3
        | None -> 3
      in
      let cfg =
        {
          Config.default_real with
          Config.readers;
          size_words = 512;
          duration_s = opts.Grid.duration_s;
          workload = Config.Verify;
          record = 200_000;
          seed = opts.Grid.seed;
        }
      in
      let result = entry.Registry.run_real cfg in
      match Option.map Arc_trace.Audit.of_history result.Config.history with
      | None | Some { Arc_trace.Audit.reads = None; _ } -> ()
      | Some { Arc_trace.Audit.reads = Some s; _ } ->
        let us ns = Printf.sprintf "%.2f" (ns /. 1e3) in
        Table.add_row table
          [
            entry.Registry.name;
            string_of_int s.Stats.n;
            us s.Stats.mean;
            us s.Stats.p50;
            (if s.Stats.tail_bp = 9990 then us s.Stats.tail else "—");
            us s.Stats.max;
          ])
    Registry.all;
  table

(* Measurement-noise quantification: repeat one canonical point many
   times and report dispersion, so EXPERIMENTS.md can state how much
   of any real-mode gap is noise. *)
let variability_table (opts : Grid.opts) =
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "Measurement variability — hold model, 3+1 threads, 4KB register, \
            %d repetitions per algorithm"
           (max (opts.Grid.reps * 3) 8))
      ~columns:[ "algorithm"; "mean ops/s"; "stddev"; "CV %"; "min"; "max" ]
  in
  let reps = max (opts.Grid.reps * 3) 8 in
  List.iter
    (fun (entry : Registry.entry) ->
      let cfg =
        {
          Config.default_real with
          Config.readers = 3;
          size_words = Arc_workload.Payload.size_4kb;
          duration_s = opts.Grid.duration_s;
          seed = opts.Grid.seed;
        }
      in
      let samples =
        Array.init reps (fun _ ->
            (entry.Registry.run_real cfg).Config.total_throughput)
      in
      let s = Stats.summarize samples in
      Table.add_row table
        [
          entry.Registry.name;
          Printf.sprintf "%.3g" s.Stats.mean;
          Printf.sprintf "%.3g" s.Stats.stddev;
          Printf.sprintf "%.1f"
            (100. *. s.Stats.stddev /. s.Stats.mean);
          Printf.sprintf "%.3g" s.Stats.min;
          Printf.sprintf "%.3g" s.Stats.max;
        ])
    Registry.paper_set;
  table
