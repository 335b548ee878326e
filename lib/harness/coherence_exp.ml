(** Experiment E9: cache-coherence traffic per operation.

    Runs each algorithm over {!Arc_vsched.Sim_mem} with a MESI
    {!Arc_vsched.Cache} installed ({!Arc_vsched.Sim_mem.with_cache})
    under the virtual scheduler and reports MESI protocol messages
    normalized per read and per write — the measured form of the
    paper's §1/§3.2 interconnect argument: ARC's fast-path read leaves
    every line Shared (zero messages at steady state), RF's
    FetchAndOr takes the sync line exclusive on {e every} read,
    bouncing it between all readers, and the lock does so twice. *)

module Cache = Arc_vsched.Cache
module Sim_mem = Arc_vsched.Sim_mem
module Sched = Arc_vsched.Sched
module Strategy = Arc_vsched.Strategy
module Table = Arc_report.Table

type row = {
  algorithm : string;
  reads : int;
  writes : int;
  inv_per_read : float;
  fetch_per_read : float;
  rfo_per_read : float;
  inv_per_write : float;
  throughput : float;  (** ops per 1000 coherence-weighted steps *)
}

(* The register must be built over Sim_mem (the caller instantiates it
   so below); the functor itself only needs the generic interface —
   the cache is installed through [Sim_mem.with_cache]. *)
module Run_of (R : Arc_core.Register_intf.S) = struct
  module P = Arc_workload.Payload.Make (R.Mem)

  (* One writer + [readers] reader fibers under a fair seeded
     scheduler, hold-model ops, fixed per-fiber op quotas so every
     algorithm does identical logical work. *)
  let run ~readers ~size ~writes_quota ~reads_quota ~seed =
    let supported =
      match R.caps.Arc_core.Register_intf.max_readers ~capacity_words:size with
      | Some bound -> min bound readers
      | None -> readers
    in
    let cache = Cache.create ~agents:(supported + 2) in
    Sim_mem.with_cache cache @@ fun () ->
    let init = Array.make size 0 in
    P.stamp init ~seq:0 ~len:size;
    let reg = R.create ~readers:supported ~capacity:size ~init in
    let src = Array.make size 0 in
    P.stamp src ~seq:1 ~len:size;
    (* Steady state first: one write, everyone reads it; then reset
       the stats so cold-start misses don't pollute the per-op rates. *)
    let handles = Array.init supported (R.reader reg) in
    R.write reg ~src ~len:size;
    Array.iter (fun rd -> ignore (R.read_with rd ~f:(fun _ _ -> ()))) handles;
    Cache.reset_stats cache;
    let reads_done = ref 0 and writes_done = ref 0 in
    let writer () =
      for _ = 1 to writes_quota do
        R.write reg ~src ~len:size;
        incr writes_done
      done
    in
    let reader i () =
      let rd = handles.(i) in
      for _ = 1 to reads_quota do
        ignore (R.read_with rd ~f:(fun _ _ -> ()));
        incr reads_done
      done
    in
    let fibers =
      Array.init (supported + 1) (fun i ->
          if i = 0 then writer else reader (i - 1))
    in
    let outcome = Sched.run ~strategy:(Strategy.random ~seed) fibers in
    let stats = Cache.stats cache in
    let per num denom = float_of_int num /. float_of_int (max denom 1) in
    {
      algorithm = R.algorithm;
      reads = !reads_done;
      writes = !writes_done;
      inv_per_read = per stats.Cache.invalidations !reads_done;
      fetch_per_read = per stats.Cache.fetches !reads_done;
      rfo_per_read = per stats.Cache.rfos !reads_done;
      inv_per_write = per stats.Cache.invalidations !writes_done;
      throughput =
        1000. *. per (!reads_done + !writes_done) outcome.Sched.steps;
    }
end

module Arc_run = Run_of (Arc_core.Arc.Make (Sim_mem))
module Rf_run = Run_of (Arc_baselines.Rf.Make (Sim_mem))
module Peterson_run = Run_of (Arc_baselines.Peterson.Make (Sim_mem))
module Rwlock_run = Run_of (Arc_baselines.Rwlock_reg.Make (Sim_mem))
module Seqlock_run = Run_of (Arc_baselines.Seqlock_reg.Make (Sim_mem))

let runners =
  [ Arc_run.run; Rf_run.run; Peterson_run.run; Rwlock_run.run; Seqlock_run.run ]

let measure ~readers ~size ~writes_quota ~reads_quota ~seed =
  List.map
    (fun run -> run ~readers ~size ~writes_quota ~reads_quota ~seed)
    runners

let table ~readers ~size ~writes_quota ~reads_quota ~seed =
  let t =
    Table.create
      ~title:
        (Printf.sprintf
           "E9 — MESI coherence traffic per operation (%d readers, %d-word \
            register, %d writes / %d reads per reader; protocol messages \
            normalized per op)"
           readers size writes_quota reads_quota)
      ~columns:
        [
          "algorithm"; "inv/read"; "fetch/read"; "rfo/read"; "inv/write";
          "ops/kstep";
        ]
  in
  List.iter
    (fun r ->
      Table.add_row t
        [
          r.algorithm;
          Printf.sprintf "%.3f" r.inv_per_read;
          Printf.sprintf "%.3f" r.fetch_per_read;
          Printf.sprintf "%.3f" r.rfo_per_read;
          Printf.sprintf "%.3f" r.inv_per_write;
          Printf.sprintf "%.2f" r.throughput;
        ])
    (measure ~readers ~size ~writes_quota ~reads_quota ~seed);
  t

let default_table (opts : Grid.opts) =
  let quota = if opts.Grid.quick then 50 else 300 in
  table ~readers:8 ~size:64 ~writes_quota:quota ~reads_quota:(quota * 4)
    ~seed:opts.Grid.seed
