(** The shared core of every figure driver: run options, the
    thread/size grids, single-point runners on the real and simulated
    substrates, the capability filter, and the series/CSV plumbing.
    Per-figure modules ({!Fig_throughput}, {!Fig_rmw}, {!Fig_ablation},
    {!Fig_latency}) build on this, and [bin/experiments] calls them
    directly. *)

module Series = Arc_report.Series
module Table = Arc_report.Table
module Strategy = Arc_vsched.Strategy

type opts = {
  reps : int;  (** repetitions per real-mode point (paper: 10) *)
  duration_s : float;  (** measured window per real-mode point *)
  sim_steps : int;  (** simulated-step budget per sim-mode point *)
  quick : bool;  (** shrink grids for smoke runs *)
  seed : int;
}

let default = { reps = 3; duration_s = 0.2; sim_steps = 300_000; quick = false; seed = 1 }
let quick = { reps = 1; duration_s = 0.05; sim_steps = 40_000; quick = true; seed = 1 }

(* Grids ------------------------------------------------------------- *)

let real_threads opts = if opts.quick then [ 2; 4; 8 ] else [ 2; 4; 8; 16; 32 ]

let real_sizes opts =
  if opts.quick then [ ("4KB", Arc_workload.Payload.size_4kb) ]
  else Arc_workload.Payload.paper_sizes

(* Simulated sizes are scaled down (per-word scheduling points make a
   128KB copy 16384 steps); the copy-cost *ratios* between sizes are
   preserved, which is what the shape comparison needs. *)
let sim_sizes opts =
  if opts.quick then [ ("64w", 64) ] else [ ("64w", 64); ("512w", 512); ("2048w", 2048) ]

let sim_threads opts = if opts.quick then [ 2; 4 ] else [ 2; 4; 8; 16; 32 ]
let fig3_threads opts = if opts.quick then [ 16; 64 ] else [ 16; 64; 256; 1024; 4096 ]

(* Systhread time-sharing rotates 50ms quanta: joining k spinning
   threads costs up to k × 50ms, so the real-threads grid stays small
   (the 4096-thread regime lives in the simulator, fig3_sim). *)
let fig3_real_thread_counts opts = if opts.quick then [ 8; 32 ] else [ 8; 32; 128 ]

(* Fabric fan-out shapes (ISSUE 6): (shards, writers, scanners) for
   the cross-shard snapshot campaign.  Covers both directions of the
   Fig. 3 regime — shard fan-out with few scanners (probe-pass cost
   scales with shards) and scanner fan-out over few shards (helping
   pressure scales with concurrent scans). *)
let fabric_shapes opts =
  if opts.quick then [ (4, 2, 2) ]
  else [ (2, 1, 2); (4, 2, 2); (8, 4, 4); (16, 4, 2); (4, 2, 8) ]

(* Runners ------------------------------------------------------------ *)

let mean_of f ~reps =
  let samples = Array.init (max reps 1) (fun _ -> f ()) in
  Arc_util.Stats.mean samples

let real_point (entry : Registry.entry) ~opts ~threads ~size ~workload ~steal =
  let cfg =
    {
      Config.default_real with
      Config.readers = threads - 1;
      size_words = size;
      duration_s = opts.duration_s;
      workload;
      steal;
      seed = opts.seed;
    }
  in
  mean_of ~reps:opts.reps (fun () ->
      (entry.Registry.run_real cfg).Config.total_throughput)

let sim_point (entry : Registry.entry) ~opts ~threads ~size ~steal =
  let cfg =
    {
      Config.default_sim with
      Config.sim_readers = threads - 1;
      sim_size_words = size;
      max_steps = opts.sim_steps;
      sim_workload = Config.Hold;
      sim_seed = opts.seed;
    }
  in
  let strategy =
    if steal then
      Strategy.steal ~seed:opts.seed
        ~base:(Strategy.random ~seed:(opts.seed + 1))
        ~probability:0.002 ~min_pause:200 ~max_pause:2_000
    else Strategy.random ~seed:opts.seed
  in
  let r = entry.Registry.run_sim ~strategy cfg in
  (* ops per 1000 simulated steps *)
  r.Config.total_throughput *. 1000.

let supports (entry : Registry.entry) ~readers ~size =
  Registry.supports entry ~readers ~capacity_words:size

(* Figure builders ---------------------------------------------------- *)

let build_series ~title_of ~x_label ~sizes ~threads ~algos ~point =
  List.map
    (fun (size_name, size) ->
      let s = Series.create ~title:(title_of size_name) ~x_label in
      List.iter
        (fun t ->
          List.iter
            (fun (entry : Registry.entry) ->
              if supports entry ~readers:(t - 1) ~size then
                Series.add s ~series:entry.Registry.name ~x:(float_of_int t)
                  ~y:(point entry ~threads:t ~size))
            algos)
        threads;
      s)
    sizes

(* Output ------------------------------------------------------------- *)

let dump_csv ~out_dir ~name contents =
  match out_dir with
  | None -> ()
  | Some dir ->
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    let oc = open_out (Filename.concat dir (name ^ ".csv")) in
    output_string oc contents;
    close_out oc

let print_series ~out_dir ~stem series_list =
  List.iteri
    (fun i s ->
      Table.print (Series.to_table s);
      print_newline ();
      print_string (Series.render_chart s);
      print_newline ();
      dump_csv ~out_dir ~name:(Printf.sprintf "%s_%d" stem i) (Series.to_csv s))
    series_list
