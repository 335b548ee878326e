(* Bechamel micro-benchmarks, one group per paper artifact (DESIGN.md
   §4).  These are the per-operation latency counterparts of the
   throughput experiments in bin/experiments.ml:

   - fig1.*      — the per-op costs behind Fig. 1's hold model:
                   steady-state read (ARC's RMW-free fast path),
                   write, and a write+read pair (a guaranteed
                   read-miss), per algorithm and register size;
   - fig2.*      — the §1/§3.2 motivation behind Fig. 2: RMW
                   instructions cost more than plain atomic loads;
   - fig3.*      — fixed-work virtual-scheduler slices (every fiber
                   completes a quota of operations): wall time is
                   proportional to the algorithm's total
                   shared-memory traffic, the Fig. 3 cost model;
   - rmw.*       — Table E4's statement as latencies: ARC read-hit
                   (0 RMW) vs RF read (1 RMW) vs ARC write+read-miss
                   (3 RMW);
   - ablation.*  — E5: write latency with parked readers, §3.4 hint
                   on vs off;
   - mrmw.*      — the (M,N) extension's operation costs. *)

open Bechamel
open Toolkit
module Real = Arc_mem.Real_mem
module P = Arc_workload.Payload.Make (Arc_mem.Real_mem)
module Sched = Arc_vsched.Sched
module Strategy = Arc_vsched.Strategy

let stamped ~seq ~len =
  let a = Array.make len 0 in
  P.stamp a ~seq ~len;
  a

(* --- fig1: read-hit / write / write+read per algorithm and size ----- *)

module Ops_of (R : Arc_core.Register_intf.S with module Mem = Arc_mem.Real_mem) =
struct
  let make ~size =
    let reg = R.create ~readers:2 ~capacity:size ~init:(stamped ~seq:0 ~len:size) in
    let rd = R.reader reg 0 in
    let src = stamped ~seq:1 ~len:size in
    R.write reg ~src ~len:size;
    ignore (R.read_with rd ~f:(fun _ _ -> ()));
    let read_hit () = R.read_with rd ~f:(fun _buffer _len -> ()) in
    let write () = R.write reg ~src ~len:size in
    let write_read () =
      R.write reg ~src ~len:size;
      R.read_with rd ~f:(fun _buffer _len -> ())
    in
    (read_hit, write, write_read)
end

module Arc_ops = Ops_of (Arc_core.Arc.Make (Arc_mem.Real_mem))
module Arc_dyn_ops = Ops_of (Arc_core.Arc_dynamic.Make (Arc_mem.Real_mem))
module Rf_ops = Ops_of (Arc_baselines.Rf.Make (Arc_mem.Real_mem))
module Peterson_ops = Ops_of (Arc_baselines.Peterson.Make (Arc_mem.Real_mem))
module Rwlock_ops = Ops_of (Arc_baselines.Rwlock_reg.Make (Arc_mem.Real_mem))
module Seqlock_ops = Ops_of (Arc_baselines.Seqlock_reg.Make (Arc_mem.Real_mem))
module Lamport_ops = Ops_of (Arc_baselines.Lamport_reg.Make (Arc_mem.Real_mem))

let fig1_tests =
  let sizes = [ ("4KB", 512); ("128KB", 16384) ] in
  let algos =
    [
      ("arc", Arc_ops.make);
      ("arc-dynamic", Arc_dyn_ops.make);
      ("rf", Rf_ops.make);
      ("peterson", Peterson_ops.make);
      ("rwlock", Rwlock_ops.make);
      ("seqlock", Seqlock_ops.make);
      ("lamport77", Lamport_ops.make);
    ]
  in
  List.concat_map
    (fun (size_name, size) ->
      List.concat_map
        (fun (algo, make) ->
          let read_hit, write, write_read = make ~size in
          [
            Test.make
              ~name:(Printf.sprintf "fig1/read-hit/%s/%s" algo size_name)
              (Staged.stage read_hit);
            Test.make
              ~name:(Printf.sprintf "fig1/write/%s/%s" algo size_name)
              (Staged.stage write);
            Test.make
              ~name:(Printf.sprintf "fig1/write+read/%s/%s" algo size_name)
              (Staged.stage write_read);
          ])
        algos)
    sizes

(* --- fig2: RMW vs plain-load primitive costs ------------------------ *)

let fig2_tests =
  let a = Atomic.make 0 in
  [
    Test.make ~name:"fig2/primitive/plain-load"
      (Staged.stage (fun () -> ignore (Atomic.get a)));
    Test.make ~name:"fig2/primitive/plain-store"
      (Staged.stage (fun () -> Atomic.set a 1));
    Test.make ~name:"fig2/primitive/fetch-and-add"
      (Staged.stage (fun () -> ignore (Atomic.fetch_and_add a 1)));
    Test.make ~name:"fig2/primitive/exchange"
      (Staged.stage (fun () -> ignore (Atomic.exchange a 2)));
    Test.make ~name:"fig2/primitive/compare-and-set"
      (Staged.stage (fun () -> ignore (Atomic.compare_and_set a 2 2)));
    Test.make ~name:"fig2/primitive/fetch-or-via-cas"
      (Staged.stage (fun () -> ignore (Real.fetch_and_or a 0)));
  ]

(* --- fig3: fixed-work simulated slices ------------------------------ *)

let sim_slice (type t r)
    (module R : Arc_core.Register_intf.S
      with type t = t
       and type reader = r
       and type Mem.buffer = Arc_vsched.Sim_mem.buffer) ~fibers () =
  let size = 64 in
  let init = Array.make size 0 in
  let reg = R.create ~readers:fibers ~capacity:size ~init in
  let src = Array.make size 0 in
  let ops = 20 in
  let writer () =
    for _ = 1 to ops do
      R.write reg ~src ~len:size
    done
  in
  let reader i () =
    let rd = R.reader reg i in
    for _ = 1 to ops do
      ignore (R.read_with rd ~f:(fun _ _ -> ()))
    done
  in
  let all =
    Array.init (fibers + 1) (fun i -> if i = 0 then writer else reader (i - 1))
  in
  ignore (Sched.run ~strategy:(Strategy.random ~seed:7) all)

module Arc_sim = Arc_core.Arc.Make (Arc_vsched.Sim_mem)
module Peterson_sim = Arc_baselines.Peterson.Make (Arc_vsched.Sim_mem)
module Rwlock_sim = Arc_baselines.Rwlock_reg.Make (Arc_vsched.Sim_mem)

let fig3_tests =
  List.concat_map
    (fun fibers ->
      [
        Test.make
          ~name:(Printf.sprintf "fig3/sim-fixed-work/arc/%dfibers" fibers)
          (Staged.stage (sim_slice (module Arc_sim) ~fibers));
        Test.make
          ~name:(Printf.sprintf "fig3/sim-fixed-work/peterson/%dfibers" fibers)
          (Staged.stage (sim_slice (module Peterson_sim) ~fibers));
        Test.make
          ~name:(Printf.sprintf "fig3/sim-fixed-work/rwlock/%dfibers" fibers)
          (Staged.stage (sim_slice (module Rwlock_sim) ~fibers));
      ])
    [ 16; 128 ]

(* --- rmw: the E4 statement as latencies ----------------------------- *)

module Arc_real = Arc_core.Arc.Make (Arc_mem.Real_mem)
module Rf_real = Arc_baselines.Rf.Make (Arc_mem.Real_mem)

let rmw_tests =
  let size = 512 in
  let arc = Arc_real.create ~readers:2 ~capacity:size ~init:(stamped ~seq:0 ~len:size) in
  let arc_rd = Arc_real.reader arc 0 in
  let rf = Rf_real.create ~readers:2 ~capacity:size ~init:(stamped ~seq:0 ~len:size) in
  let rf_rd = Rf_real.reader rf 0 in
  let src = stamped ~seq:1 ~len:size in
  Arc_real.write arc ~src ~len:size;
  ignore (Arc_real.read_with arc_rd ~f:(fun _ _ -> ()));
  Rf_real.write rf ~src ~len:size;
  let arc2 = Arc_real.create ~readers:2 ~capacity:size ~init:(stamped ~seq:0 ~len:size) in
  let miss_rd = Arc_real.reader arc2 0 in
  let miss_write_then_read () =
    Arc_real.write arc2 ~src ~len:size;
    Arc_real.read_with miss_rd ~f:(fun _ _ -> ())
  in
  [
    Test.make ~name:"rmw/arc-read-hit-0rmw"
      (Staged.stage (fun () -> Arc_real.read_with arc_rd ~f:(fun _ _ -> ())));
    Test.make ~name:"rmw/rf-read-1rmw"
      (Staged.stage (fun () -> Rf_real.read_with rf_rd ~f:(fun _ _ -> ())));
    Test.make ~name:"rmw/arc-write+read-miss-3rmw"
      (Staged.stage miss_write_then_read);
  ]

(* --- ablation: §3.4 hint under parked readers ----------------------- *)

let parked_writer ~use_hint =
  let readers = 64 in
  let capacity = 16 in
  let reg =
    Arc_real.create_with ~use_hint ~readers ~capacity
      ~init:(stamped ~seq:0 ~len:capacity)
  in
  let handles = Array.init readers (Arc_real.reader reg) in
  let src = stamped ~seq:1 ~len:capacity in
  for seq = 1 to readers do
    Arc_real.write reg ~src ~len:capacity;
    ignore (Arc_real.read_with handles.(seq - 1) ~f:(fun _ _ -> ()))
  done;
  let active = handles.(0) in
  fun () ->
    ignore (Arc_real.read_with active ~f:(fun _ _ -> ()));
    Arc_real.write reg ~src ~len:capacity

let ablation_tests =
  [
    Test.make ~name:"ablation/write-parked64/arc-hint"
      (Staged.stage (parked_writer ~use_hint:true));
    Test.make ~name:"ablation/write-parked64/arc-nohint"
      (Staged.stage (parked_writer ~use_hint:false));
  ]

(* --- mrmw: the (M,N) extension -------------------------------------- *)

module Mn = Arc_mrmw.Mn_register.Make (Arc_core.Arc) (Arc_mem.Real_mem)

let mrmw_tests =
  let reg = Mn.create ~writers:4 ~readers:4 ~capacity:64 ~init:(Array.make 64 1) in
  let w = Mn.writer reg 0 in
  let rd = Mn.reader reg 0 in
  let src = Array.make 64 2 in
  let dst = Array.make 64 0 in
  Mn.write w ~src ~len:64;
  [
    Test.make ~name:"mrmw/write-4writers"
      (Staged.stage (fun () -> Mn.write w ~src ~len:64));
    Test.make ~name:"mrmw/read-4writers"
      (Staged.stage (fun () -> ignore (Mn.read_into rd ~dst)));
  ]

(* --- shm: the file-backed substrate's per-op overhead ---------------- *)

(* ARC over an mmap'd file ({!Arc_shm.Shm_mem}) against ARC over the
   heap, same geometry: the delta is the durability tax — C-stub
   atomics instead of [Atomic], plus the publish trailer (sequence
   bracket + checksum over the payload) on every write.  Reads carry
   no trailer work, so read-hit should be near-identical; write pays
   roughly one extra payload scan. *)

let shm_ops ~size =
  let path = Filename.temp_file "arc_bench_shm" ".reg" in
  let m = Arc_shm.Shm_mem.create ~path ~words:(8 * (size + 64)) in
  let module M = (val Arc_shm.Shm_mem.mem m) in
  let module R = Arc_core.Arc.Make (M) in
  let reg = R.create ~readers:2 ~capacity:size ~init:(stamped ~seq:0 ~len:size) in
  let rd = R.reader reg 0 in
  let src = stamped ~seq:1 ~len:size in
  R.write reg ~src ~len:size;
  ignore (R.read_with rd ~f:(fun _ _ -> ()));
  let read_hit () = R.read_with rd ~f:(fun _ _ -> ()) in
  let write () = R.write reg ~src ~len:size in
  let write_read () =
    R.write reg ~src ~len:size;
    R.read_with rd ~f:(fun _ _ -> ())
  in
  at_exit (fun () ->
      Arc_shm.Shm_mem.close m;
      try Sys.remove path with Sys_error _ -> ());
  (read_hit, write, write_read)

let shm_sizes = [ ("4KB", 512); ("32KB", 4096); ("128KB", 16384) ]

let shm_tests =
  List.concat_map
    (fun (size_name, size) ->
      let read_hit, write, write_read = shm_ops ~size in
      [
        Test.make
          ~name:(Printf.sprintf "shm/read-hit/arc/%s" size_name)
          (Staged.stage read_hit);
        Test.make
          ~name:(Printf.sprintf "shm/write/arc/%s" size_name)
          (Staged.stage write);
        Test.make
          ~name:(Printf.sprintf "shm/write+read/arc/%s" size_name)
          (Staged.stage write_read);
      ])
    shm_sizes

(* --- obs: telemetry overhead on the hot paths ------------------------ *)

(* ISSUE 5's acceptance bar: attaching the wait-free telemetry layer
   must cost the read fast path at most a few percent.  Same register
   geometry with and without a telemetry handle; the delta is one
   per-reader cell increment — a plain store into a cache-line-isolated
   record, no RMW, no allocation. *)

let obs_ops ~telemetry ~size =
  let reg =
    Arc_real.create ~readers:2 ~capacity:size ~init:(stamped ~seq:0 ~len:size)
  in
  if telemetry then
    Arc_real.set_telemetry reg (Some (Arc_real.make_telemetry ~readers:2 ()));
  let rd = Arc_real.reader reg 0 in
  let src = stamped ~seq:1 ~len:size in
  Arc_real.write reg ~src ~len:size;
  ignore (Arc_real.read_with rd ~f:(fun _ _ -> ()));
  let read_hit () = Arc_real.read_with rd ~f:(fun _ _ -> ()) in
  let write () = Arc_real.write reg ~src ~len:size in
  (read_hit, write)

let obs_tests =
  List.concat_map
    (fun (label, telemetry) ->
      let read_hit, write = obs_ops ~telemetry ~size:512 in
      [
        Test.make
          ~name:(Printf.sprintf "obs/read-hit/%s/4KB" label)
          (Staged.stage read_hit);
        Test.make
          ~name:(Printf.sprintf "obs/write/%s/4KB" label)
          (Staged.stage write);
      ])
    [ ("telemetry-off", false); ("telemetry-on", true) ]

(* --- machine-readable throughput snapshot (BENCH_arc.json) ----------- *)

(* Hold-model throughput at the canonical contention point (32KB
   register, 8 threads) plus the 4KB point, per paper-set algorithm.
   Written as JSON so the perf trajectory is diffable across PRs:
   each record carries algorithm, size, threads and the mean of
   [reps] runs, and the top level embeds the telemetry-overhead
   record the perf gate reads.  Emission is opt-in:
   `dune exec bench/main.exe -- --throughput-json[=PATH]` emits only
   this file; the default bechamel run writes nothing (the silent
   default write was the ISSUE 5 CLI bug). *)

module Registry = Arc_harness.Registry
module Config = Arc_harness.Config

let throughput_grid = [ (4096, "32KB", 8); (512, "4KB", 8) ]
let throughput_reps = 3
let throughput_duration_s = 0.2

let throughput_point (entry : Registry.entry) ~size_words ~threads =
  let cfg =
    {
      Config.default_real with
      Config.readers = threads - 1;
      size_words;
      duration_s = throughput_duration_s;
      workload = Config.Hold;
      seed = 7;
    }
  in
  let samples =
    Array.init throughput_reps (fun _ ->
        (entry.Registry.run_real cfg).Config.total_throughput)
  in
  Arc_util.Stats.mean samples

let json_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* Fixed-iteration median sampler shared by the JSON emitters: these
   ops are far above clock resolution, and the simple harness keeps
   the JSON modes fast enough for CI. *)

let shm_json_reps = 5
let shm_json_iters = 20_000

let measure_ns f =
  let sample () =
    let t0 = Arc_util.Cpu.now_ns () in
    for _ = 1 to shm_json_iters do
      f ()
    done;
    Int64.to_float (Int64.sub (Arc_util.Cpu.now_ns ()) t0)
    /. float_of_int shm_json_iters
  in
  ignore (sample ());
  let samples = Array.init shm_json_reps (fun _ -> sample ()) in
  Array.sort compare samples;
  samples.(shm_json_reps / 2)

(* Reader join/leave cost (ISSUE 8): one full tenancy — admit through
   the gate, one read through the leased handle, depart — over the
   real register on the real clock.  The p99 is what an arriving
   reader actually waits before its first value, and the perf gate
   tracks it alongside the read-hit cost. *)
let reader_join_p99_ns () =
  let module Gate = Arc_resilience.Admission.Make (Arc_real) in
  let words = 64 in
  let capacity = 4 in
  let reg =
    Arc_real.create ~readers:capacity ~capacity:words
      ~init:(stamped ~seq:1 ~len:words)
  in
  let tick = ref 0 in
  let gate =
    Gate.create
      ~now:(fun () ->
        incr tick;
        !tick)
      ~sleep:(fun _ -> ())
      ~base:0 ~capacity reg
  in
  let cycle () =
    match Gate.admit gate with
    | Arc_core.Register_intf.Admitted tk ->
      ignore (Arc_real.read_with (Gate.reader gate tk) ~f:(fun _ _ -> ()));
      ignore (Gate.depart gate tk)
    | Arc_core.Register_intf.Backpressured _ -> ()
  in
  for _ = 1 to 1_000 do
    cycle ()
  done;
  let cycles = 20_000 in
  let samples = Array.make cycles 0. in
  for i = 0 to cycles - 1 do
    let t0 = Arc_util.Cpu.now_ns () in
    cycle ();
    samples.(i) <- Int64.to_float (Int64.sub (Arc_util.Cpu.now_ns ()) t0)
  done;
  Array.sort compare samples;
  samples.(cycles * 99 / 100)

(* The telemetry-overhead record embedded in BENCH_arc.json: per-op
   read-hit cost with the obs layer detached vs attached (the ISSUE 5
   acceptance number — [read_hit_ns_off] doubles as the perf gate's
   per-op read cost), plus the reader join p99 above and a live
   metrics snapshot from a short telemetry-enabled run so the
   exposition output itself is archived with the trajectory. *)
let telemetry_overhead_json () =
  let read_off, _ = obs_ops ~telemetry:false ~size:512 in
  let read_on, _ = obs_ops ~telemetry:true ~size:512 in
  (* The effect being measured (~1 plain store on an ~11ns op) is
     smaller than run-to-run frequency drift, so sequential medians of
     the two closures are too noisy: interleave the samples and take
     each closure's minimum, the noise-robust estimator for a
     fixed-work loop (all noise sources are additive). *)
  let sample f =
    let t0 = Arc_util.Cpu.now_ns () in
    for _ = 1 to shm_json_iters do
      f ()
    done;
    Int64.to_float (Int64.sub (Arc_util.Cpu.now_ns ()) t0)
    /. float_of_int shm_json_iters
  in
  ignore (sample read_off);
  ignore (sample read_on);
  let off_min = ref infinity and on_min = ref infinity in
  for _ = 1 to 9 do
    off_min := Float.min !off_min (sample read_off);
    on_min := Float.min !on_min (sample read_on)
  done;
  let off_ns = !off_min and on_ns = !on_min in
  let overhead_pct =
    if off_ns > 0. then 100. *. (on_ns -. off_ns) /. off_ns else 0.
  in
  (* The R2' validated plain-load read (ISSUE 10) on the same geometry,
     telemetry detached — the perf gate holds this under an absolute
     ceiling (the pre-R2' classic-path cost) as well as gating drift. *)
  let plain_ns =
    let reg =
      Arc_real.create ~readers:2 ~capacity:512 ~init:(stamped ~seq:0 ~len:512)
    in
    let rd = Arc_real.reader reg 0 in
    Arc_real.write reg ~src:(stamped ~seq:1 ~len:512) ~len:512;
    (* One classic read subscribes (pins the slot and caches the packed
       word), so the loop measures R2's steady state in the mixed hold
       loop: hot plain hits until the next write. *)
    ignore (Arc_real.read_with rd ~f:(fun _ _ -> ()));
    let read_plain () = Arc_real.read_plain rd ~f:(fun _ _ -> ()) in
    ignore (sample read_plain);
    let m = ref infinity in
    for _ = 1 to 9 do
      m := Float.min !m (sample read_plain)
    done;
    !m
  in
  let reg =
    Arc_real.create ~readers:1 ~capacity:64 ~init:(stamped ~seq:0 ~len:64)
  in
  Arc_real.set_telemetry reg (Some (Arc_real.make_telemetry ~readers:1 ()));
  let rd = Arc_real.reader reg 0 in
  let src = stamped ~seq:1 ~len:64 in
  for _ = 1 to 100 do
    Arc_real.write reg ~src ~len:64;
    (* First read misses (fresh write), second hits the cached index. *)
    ignore (Arc_real.read_with rd ~f:(fun _ _ -> ()));
    ignore (Arc_real.read_with rd ~f:(fun _ _ -> ()))
  done;
  Printf.sprintf
    "{\n\
    \    \"read_hit_ns_off\": %.2f,\n\
    \    \"read_hit_ns_on\": %.2f,\n\
    \    \"overhead_pct\": %.2f,\n\
    \    \"read_plain_ns\": %.2f,\n\
    \    \"reader_join_p99_ns\": %.2f,\n\
    \    \"metrics\": %s\n\
    \  }"
    off_ns on_ns overhead_pct plain_ns (reader_join_p99_ns ())
    (Arc_obs.Obs.json (Arc_real.metrics reg))

let emit_throughput_json path =
  (* Warm-up: the first measured point of a fresh process absorbs
     cold-start costs (domain spawning, code paths, page faults) worth
     several percent — run one unrecorded point first so the grid
     measures steady state. *)
  ignore
    (throughput_point (Registry.find "arc") ~size_words:512 ~threads:8);
  let records =
    List.concat_map
      (fun (size_words, size_name, threads) ->
        List.map
          (fun (entry : Registry.entry) ->
            let mean = throughput_point entry ~size_words ~threads in
            Printf.sprintf
              "    {\"algorithm\": %S, \"size\": %S, \"size_words\": %d, \
               \"threads\": %d, \"workload\": \"hold\", \
               \"mean_throughput_ops_s\": %.1f}"
              entry.Registry.name size_name size_words threads mean)
          Registry.paper_set)
      throughput_grid
  in
  let oc = open_out path in
  Printf.fprintf oc
    "{\n\
    \  \"platform\": \"%s\",\n\
    \  \"reps\": %d,\n\
    \  \"duration_s\": %.2f,\n\
    \  \"telemetry\": %s,\n\
    \  \"results\": [\n%s\n  ]\n}\n"
    (json_escape (Arc_util.Cpu.describe ()))
    throughput_reps throughput_duration_s
    (telemetry_overhead_json ())
    (String.concat ",\n" records);
  close_out oc;
  Printf.printf "wrote %s\n%!" path

(* --- machine-readable substrate snapshot (BENCH_shm.json) ------------ *)

(* Per-op latencies of the same register over both substrates, so the
   durability tax is a number the perf trajectory tracks across PRs. *)

let emit_shm_json path =
  let records =
    List.concat_map
      (fun (size_name, size) ->
        let substrates = [ ("heap", Arc_ops.make ~size); ("shm", shm_ops ~size) ] in
        List.concat_map
          (fun (substrate, (read_hit, write, write_read)) ->
            List.map
              (fun (op, f) ->
                Printf.sprintf
                  "    {\"substrate\": %S, \"op\": %S, \"size\": %S, \
                   \"size_words\": %d, \"median_ns_per_op\": %.1f}"
                  substrate op size_name size (measure_ns f))
              [ ("read-hit", read_hit); ("write", write); ("write+read", write_read) ])
          substrates)
      shm_sizes
  in
  let oc = open_out path in
  Printf.fprintf oc
    "{\n\
    \  \"platform\": \"%s\",\n\
    \  \"reps\": %d,\n\
    \  \"iters_per_sample\": %d,\n\
    \  \"results\": [\n%s\n  ]\n}\n"
    (json_escape (Arc_util.Cpu.describe ()))
    shm_json_reps shm_json_iters
    (String.concat ",\n" records);
  close_out oc;
  Printf.printf "wrote %s\n%!" path

(* --- machine-readable fabric snapshot (BENCH_fabric.json) ------------ *)

(* The ISSUE 6 fan-out campaign: cross-shard snapshot cost as the
   fabric grows.  The real-memory grid measures steady-state snapshot
   latency (collect + clean probe pass) per shard count — its 64-shard
   point, normalized to ns per shard collected, is the perf gate's
   tracked metric [snapshot_ns_per_shard].  The simulated grid runs
   the Fig. 3 regime the container cannot host natively (thousands of
   shards with contending writers under the virtual scheduler) and
   reports the cost-model counterpart, steps per snapshot. *)

module Fabric_runner = Arc_harness.Fabric_runner
module Fab = Arc_fabric.Fabric.Make (Arc_core.Arc.Make (Arc_mem.Real_mem))

let fabric_size_words = 64
let fabric_shard_grid = [ 4; 16; 64; 256; 1024 ]
let fabric_gate_shards = 64

(* measure_ns's fixed 20k iterations would make the 1024-shard point
   pay ~7s of sampling for no precision; scale iterations down with
   the per-op cost instead. *)
let fabric_measure ~shards f =
  let iters = max 100 (20_000 / shards) in
  let sample () =
    let t0 = Arc_util.Cpu.now_ns () in
    for _ = 1 to iters do
      f ()
    done;
    Int64.to_float (Int64.sub (Arc_util.Cpu.now_ns ()) t0) /. float_of_int iters
  in
  ignore (sample ());
  let samples = Array.init shm_json_reps (fun _ -> sample ()) in
  Array.sort compare samples;
  samples.(shm_json_reps / 2)

(* Measures the CERTIFIED path (ISSUE 9): a reign cell is attached and
   never bumped, so every snapshot takes the no-election fast path —
   the two extra configuration-epoch loads ride inside the tracked
   metric and the ±20% gate on [snapshot_ns_per_shard] enforces that
   certification stays that cheap. *)
let fabric_real_point ~shards =
  let init = stamped ~seq:0 ~len:fabric_size_words in
  let fab =
    Fab.create ~shards ~writers:1 ~readers:1 ~capacity:fabric_size_words ~init
  in
  Fab.attach_reign fab ~config:(Arc_mem.Real_mem.atomic_contended 1);
  let w = Fab.writer fab 0 in
  let src = stamped ~seq:1 ~len:fabric_size_words in
  for s = 0 to shards - 1 do
    Fab.write w ~shard:s ~src ~len:fabric_size_words
  done;
  let sc = Fab.scanner fab 0 in
  let snap () =
    match Fab.snapshot_certified sc with
    | Ok s -> ignore (Fab.snap_epoch s)
    | Error _ -> failwith "certified snapshot failed with no elections running"
  in
  snap ();
  fabric_measure ~shards snap

let fabric_sim_grid = [ (64, 8, 2); (256, 8, 2); (1024, 8, 2) ]

let fabric_sim_point ~shards ~writers ~scanners =
  (* The algorithm is discovered by capability, not named. *)
  let entry = List.hd (Registry.fabric_capable Registry.all) in
  let run = Option.get entry.Registry.run_fabric_sim in
  let cfg =
    {
      Config.fab_shards = shards;
      fab_writers = writers;
      fab_scanners = scanners;
      fab_size_words = 8;
      fab_steps = 150_000;
      fab_seed = 7;
      fab_atomic = true;
    }
  in
  run cfg

let emit_fabric_json path =
  let real =
    List.map
      (fun shards ->
        let ns = fabric_real_point ~shards in
        (shards, ns, ns /. float_of_int shards))
      fabric_shard_grid
  in
  let gate_ns_per_shard =
    match List.find_opt (fun (s, _, _) -> s = fabric_gate_shards) real with
    | Some (_, _, per_shard) -> per_shard
    | None -> 0.
  in
  let real_records =
    List.map
      (fun (shards, ns, per_shard) ->
        Printf.sprintf
          "    {\"shards\": %d, \"median_ns_per_snapshot\": %.1f, \
           \"ns_per_shard\": %.2f}"
          shards ns per_shard)
      real
  in
  let sim_records =
    List.map
      (fun (shards, writers, scanners) ->
        let r = fabric_sim_point ~shards ~writers ~scanners in
        let per_snap =
          if r.Fabric_runner.fr_snapshots > 0 then
            float_of_int r.Fabric_runner.fr_steps
            /. float_of_int r.Fabric_runner.fr_snapshots
          else 0.
        in
        Printf.sprintf
          "    {\"shards\": %d, \"writers\": %d, \"scanners\": %d, \
           \"snapshots\": %d, \"borrowed\": %d, \"retries\": %d, \
           \"steps\": %d, \"steps_per_snapshot\": %.1f}"
          shards writers scanners r.Fabric_runner.fr_snapshots
          r.Fabric_runner.fr_borrowed r.Fabric_runner.fr_retries
          r.Fabric_runner.fr_steps per_snap)
      fabric_sim_grid
  in
  let oc = open_out path in
  Printf.fprintf oc
    "{\n\
    \  \"platform\": \"%s\",\n\
    \  \"size_words\": %d,\n\
    \  \"gate_shards\": %d,\n\
    \  \"snapshot_ns_per_shard\": %.2f,\n\
    \  \"real\": [\n%s\n  ],\n\
    \  \"sim\": [\n%s\n  ]\n}\n"
    (json_escape (Arc_util.Cpu.describe ()))
    fabric_size_words fabric_gate_shards gate_ns_per_shard
    (String.concat ",\n" real_records)
    (String.concat ",\n" sim_records);
  close_out oc;
  Printf.printf "wrote %s\n%!" path

(* --- machine-readable scaling snapshot (BENCH_scaling.json) ---------- *)

(* The ISSUE 10 multi-core matrix: per-op read cost at real reader
   Domain counts, under a live writer — the Fig. 1/2 claim ("the ARC
   read hit beats the alternatives under contention at real core
   counts") measured rather than asserted.  Each core count spawns
   that many reader Domains plus one churn writer; every reader times
   the classic read hit and the R2' validated plain load over its own
   handle, and the point reports the median across readers.  OCaml
   exposes no portable thread-affinity API, so domains are not pinned;
   [hw_cores] records what the host actually had (an oversubscribed
   run is still a real contention measurement, just a noisier one —
   per-reader minima over several samples absorb descheduling spikes).

   The perf gate tracks each emitted [read_hit_ns@N] /
   [read_plain_ns@N] key per core count, so a scaling regression at 4
   readers fails CI even when the single-core cost is unchanged. *)

let scaling_size = 512
let scaling_iters = 50_000
let scaling_warmup = 5_000
let scaling_reps = 3

let scaling_point ~cores =
  let reg =
    Arc_real.create ~readers:cores ~capacity:scaling_size
      ~init:(stamped ~seq:0 ~len:scaling_size)
  in
  let src = stamped ~seq:1 ~len:scaling_size in
  Arc_real.write reg ~src ~len:scaling_size;
  let stop = Atomic.make false in
  let writer () =
    (* Hold-model churn: occasional writes, so readers mostly hit but
       every write forces the subscribe path (classic) or a stamp
       revalidation (plain) on each reader's next read. *)
    while not (Atomic.get stop) do
      Arc_real.write reg ~src ~len:scaling_size;
      for _ = 1 to 5_000 do
        Domain.cpu_relax ()
      done
    done
  in
  let measure_reader i () =
    let rd = Arc_real.reader reg i in
    let time_one f =
      for _ = 1 to scaling_warmup do
        f ()
      done;
      let best = ref infinity in
      for _ = 1 to scaling_reps do
        let t0 = Arc_util.Cpu.now_ns () in
        for _ = 1 to scaling_iters do
          f ()
        done;
        let ns =
          Int64.to_float (Int64.sub (Arc_util.Cpu.now_ns ()) t0)
          /. float_of_int scaling_iters
        in
        if ns < !best then best := ns
      done;
      !best
    in
    let hit = time_one (fun () -> Arc_real.read_with rd ~f:(fun _ _ -> ())) in
    let plain = time_one (fun () -> Arc_real.read_plain rd ~f:(fun _ _ -> ())) in
    (hit, plain)
  in
  let wdom = Domain.spawn writer in
  let doms = Array.init cores (fun i -> Domain.spawn (measure_reader i)) in
  let results = Array.map Domain.join doms in
  Atomic.set stop true;
  Domain.join wdom;
  let median a =
    let a = Array.copy a in
    Array.sort compare a;
    a.(Array.length a / 2)
  in
  (median (Array.map fst results), median (Array.map snd results))

let emit_scaling_json ~cores path =
  let points = List.map (fun c -> (c, scaling_point ~cores:c)) cores in
  let top_keys =
    List.concat_map
      (fun (c, (hit, plain)) ->
        [
          Printf.sprintf "  \"read_hit_ns@%d\": %.2f" c hit;
          Printf.sprintf "  \"read_plain_ns@%d\": %.2f" c plain;
        ])
      points
  in
  let records =
    List.map
      (fun (c, (hit, plain)) ->
        Printf.sprintf
          "    {\"cores\": %d, \"read_hit_ns\": %.2f, \"read_plain_ns\": %.2f}"
          c hit plain)
      points
  in
  let oc = open_out path in
  Printf.fprintf oc
    "{\n\
    \  \"platform\": \"%s\",\n\
    \  \"hw_cores\": %d,\n\
    \  \"size_words\": %d,\n\
    \  \"iters_per_sample\": %d,\n%s,\n\
    \  \"results\": [\n%s\n  ]\n}\n"
    (json_escape (Arc_util.Cpu.describe ()))
    (Domain.recommended_domain_count ())
    scaling_size scaling_iters
    (String.concat ",\n" top_keys)
    (String.concat ",\n" records);
  close_out oc;
  Printf.printf "wrote %s\n%!" path

(* --- runner ---------------------------------------------------------- *)

let benchmark tests =
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let instance = Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.3) ~stabilize:false ~kde:None ()
  in
  let grouped = Test.make_grouped ~name:"arc" tests in
  let raw = Benchmark.all cfg [ instance ] grouped in
  Analyze.all ols instance raw

let run_bechamel () =
  Printf.printf "arc_register benchmarks — %s\n" (Arc_util.Cpu.describe ());
  Printf.printf "%-50s %14s %8s\n" "benchmark" "ns/op" "r^2";
  print_endline (String.make 74 '-');
  let tests =
    fig1_tests @ fig2_tests @ fig3_tests @ rmw_tests @ ablation_tests @ mrmw_tests
    @ shm_tests @ obs_tests
  in
  let results = benchmark tests in
  let rows =
    Hashtbl.fold
      (fun name ols acc ->
        let ns =
          match Analyze.OLS.estimates ols with Some (t :: _) -> t | _ -> nan
        in
        let r2 = Option.value (Analyze.OLS.r_square ols) ~default:nan in
        (name, ns, r2) :: acc)
      results []
  in
  List.iter
    (fun (name, ns, r2) -> Printf.printf "%-50s %14.1f %8.4f\n" name ns r2)
    (List.sort (fun (a, _, _) (b, _, _) -> compare a b) rows)

(* CLI parity with arc-check/arc-soak/arc-crash (cmdliner): unknown
   flags are rejected with a usage message, and the JSON emitters are
   strictly opt-in.  The previous hand-rolled parser silently wrote
   BENCH_arc.json after every default run and ignored unrecognized
   arguments. *)

open Cmdliner

let throughput_json_arg =
  let doc =
    "Write the hold-model throughput grid and the telemetry-overhead \
     snapshot as JSON to $(docv), skipping the bechamel suite.  A bare \
     $(opt) writes BENCH_arc.json.  Without this flag no file is written."
  in
  Arg.(
    value
    & opt ~vopt:(Some "BENCH_arc.json") (some string) None
    & info [ "throughput-json" ] ~docv:"PATH" ~doc)

let shm_json_arg =
  let doc =
    "Write the heap-vs-shm per-op latency snapshot as JSON to $(docv), \
     skipping the bechamel suite.  A bare $(opt) writes BENCH_shm.json."
  in
  Arg.(
    value
    & opt ~vopt:(Some "BENCH_shm.json") (some string) None
    & info [ "shm-json" ] ~docv:"PATH" ~doc)

let fabric_json_arg =
  let doc =
    "Write the fabric fan-out campaign (cross-shard snapshot cost per shard \
     count, real and simulated) as JSON to $(docv), skipping the bechamel \
     suite.  A bare $(opt) writes BENCH_fabric.json."
  in
  Arg.(
    value
    & opt ~vopt:(Some "BENCH_fabric.json") (some string) None
    & info [ "fabric-json" ] ~docv:"PATH" ~doc)

let scaling_json_arg =
  let doc =
    "Write the multi-core read-scaling matrix (per-op read cost at each \
     $(b,--cores) reader Domain count, under a live writer) as JSON to \
     $(docv), skipping the bechamel suite.  A bare $(opt) writes \
     BENCH_scaling.json."
  in
  Arg.(
    value
    & opt ~vopt:(Some "BENCH_scaling.json") (some string) None
    & info [ "scaling-json" ] ~docv:"PATH" ~doc)

let cores_arg =
  let doc =
    "Comma-separated reader Domain counts for the scaling matrix, e.g. \
     2,4,8.  Each count spawns that many reader Domains plus one writer."
  in
  Arg.(value & opt string "2,3,4" & info [ "cores" ] ~docv:"LIST" ~doc)

let parse_cores s =
  let parts = String.split_on_char ',' s in
  let cores =
    List.filter_map
      (fun p ->
        let p = String.trim p in
        if p = "" then None else Some (int_of_string_opt p))
      parts
  in
  match
    List.fold_left
      (fun acc c -> match (acc, c) with Some l, Some c when c >= 1 -> Some (c :: l) | _ -> None)
      (Some []) cores
  with
  | Some (_ :: _ as l) -> List.rev l
  | _ -> raise (Invalid_argument (Printf.sprintf "bad --cores list %S" s))

let main throughput shm fabric scaling cores =
  match (throughput, shm, fabric, scaling) with
  | None, None, None, None -> run_bechamel ()
  | _ ->
    Option.iter emit_shm_json shm;
    Option.iter emit_throughput_json throughput;
    Option.iter emit_fabric_json fabric;
    Option.iter (emit_scaling_json ~cores:(parse_cores cores)) scaling

let cmd =
  Cmd.v
    (Cmd.info "arc-bench"
       ~doc:
         "Per-operation microbenchmarks for the ARC register (bechamel \
          suite by default; machine-readable JSON snapshots by opt-in \
          flag)")
    Term.(
      const main $ throughput_json_arg $ shm_json_arg $ fabric_json_arg
      $ scaling_json_arg $ cores_arg)

let () = exit (Cmd.eval cmd)
