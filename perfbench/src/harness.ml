(* What the three workloads share: configuration, the writer's log,
   the two-domain phase runner, set-up timing, calibration loops and
   the conversion of a phase into the metric lists. *)

type config = {
  seconds : float;
  seed : int;
  trace : bool;
  tmp_dir : string;
  trace_out : string option;
}

let now = Clock.now_ns

(* Taken at start-up: once the reader pins itself, the runtime's own
   count would see one core. *)
let hw_cores = Domain.recommended_domain_count ()

(* Samples taken before this much of a phase has passed are dropped:
   caches fill, the writer domain starts, lazy set-up finishes. *)
let warmup_ns = 250_000_000

let setups = 7
let sample_cap = 1 lsl 18
let raw_spans = 1 lsl 15

(* Payload seq numbers start at a seed-derived base, so two seeds never
   publish the same values. *)
let seq_base seed = 1 + ((seed land 0x3FFFFFFF) mod 1_000_003 * 1_000_000)

let table_bits = 12
let table_mask = (1 lsl table_bits) - 1

let jitter_table ~seed ~amp =
  let g = Arc_util.Splitmix.of_int seed in
  Array.init (1 lsl table_bits) (fun _ ->
      Arc_util.Splitmix.int g ((2 * amp) + 1) - amp)

(* {1 The writer's log}

   Write [k] (1-based; its payload seq is [base + k]) fills ring slot
   [k land ring_mask] before it is published, tag last.  A reader that
   has observed seq [base + k] therefore finds its call time (and, for
   the fabric, its shard and the next write to the same shard) in the
   slot, unless the tag shows the slot was reused since. *)

let ring_bits = 17
let ring_mask = (1 lsl ring_bits) - 1

type wlog = {
  base : int;
  tag : int array;
  tcall : int array;
  shard : int array;
  next_same : int array;  (* write index of the next write to the same shard; 0 = none yet *)
  completed : int Atomic.t;  (* index of the last write that returned *)
}

let wlog base =
  let r v = Array.make (ring_mask + 1) v in
  {
    base;
    tag = r (-1);
    tcall = r 0;
    shard = r 0;
    next_same = r 0;
    completed = Atomic.make 0;
  }

let log_write l k ~shard ~tc =
  let i = k land ring_mask in
  l.next_same.(i) <- 0;
  l.shard.(i) <- shard;
  l.tcall.(i) <- tc;
  l.tag.(i) <- k

let logged l k = k >= 0 && l.tag.(k land ring_mask) = k
let call_time l k = if logged l k then l.tcall.(k land ring_mask) else -1

(* {1 Phases} *)

type window = { t_start : int; t_meas : int; t_end : int }

let in_window w t = t >= w.t_meas && t < w.t_end

type wside = {
  writes : Samples.t;
  late : Samples.t;
  mutable n_writes : int;  (* writes issued inside the window *)
  mutable issued : int;
}

(* Why a read failed.  [fail] counts one failed read of a kind. *)
let torn = 0
let out_of_order = 1
let stale = 2
let split = 3
let refused = 4
let kind_names = [| "torn"; "out_of_order"; "stale"; "split_cut"; "error" |]

type rside = {
  reads : Samples.t;
  visible : Samples.t;
  mutable n_reads : int;  (* reads completed inside the window *)
  mutable attempted : int;
  mutable failed : int;
  kinds : int array;
}

let record_write ws w ~due ~tc ~tr =
  ws.issued <- ws.issued + 1;
  if in_window w tc then begin
    Samples.add ws.writes (tr - tc);
    Samples.add ws.late (tc - due);
    ws.n_writes <- ws.n_writes + 1
  end

let fail rs kind =
  rs.kinds.(kind) <- rs.kinds.(kind) + 1;
  rs.failed <- rs.failed + 1

let observe_visible rs w l ~k ~t_obs =
  let tc = call_time l k in
  if tc >= 0 && in_window w tc then Samples.add rs.visible (t_obs - tc)

type phase = {
  w : window;
  ws : wside;
  rs : rside;
  wrec : Spans.t;
  rrec : Spans.t;
  minor_gcs : int;
  phase_s : float;
}

(* The main domain reads, one spawned domain writes: two domains, the
   box's [nproc].  The reader owns the clock of the phase; when it
   returns the writer is stopped and joined. *)
let run_phase ~seconds ~traced ~writer ~reader =
  let rec_for tid =
    if traced then Spans.create ~names:Layer.names ~tid ~raw:raw_spans
    else Spans.disabled ()
  in
  let wrec = rec_for 2 and rrec = rec_for 1 in
  let ws =
    {
      writes = Samples.create sample_cap;
      late = Samples.create sample_cap;
      n_writes = 0;
      issued = 0;
    }
  in
  let rs =
    {
      reads = Samples.create (4 * sample_cap);
      visible = Samples.create sample_cap;
      n_reads = 0;
      attempted = 0;
      failed = 0;
      kinds = Array.make (Array.length kind_names) 0;
    }
  in
  let stop = Atomic.make false in
  let gc0 = (Gc.quick_stat ()).Gc.minor_collections in
  let t_start = now () in
  let t_meas = t_start + warmup_ns in
  let w = { t_start; t_meas; t_end = t_meas + int_of_float (seconds *. 1e9) } in
  let d =
    Domain.spawn (fun () ->
        ignore (Clock.pin_nth_cpu 1);
        ignore (Clock.timer_slack 1000);
        Spans.install wrec;
        writer w stop ws)
  in
  ignore (Clock.pin_nth_cpu 0);
  Spans.install rrec;
  let r = try Ok (reader w rs) with e -> Error e in
  Atomic.set stop true;
  let j = try Ok (Domain.join d) with e -> Error e in
  Spans.install (Spans.disabled ());
  (match (r, j) with Error e, _ | _, Error e -> raise e | Ok (), Ok () -> ());
  let gc1 = (Gc.quick_stat ()).Gc.minor_collections in
  { w; ws; rs; wrec; rrec; minor_gcs = gc1 - gc0; phase_s = float (now () - t_start) /. 1e9 }

(* Set up [setups] times, timing each; every state but the last is
   released.  Returns the median set-up time and the last state. *)
let time_setups setup =
  let times = Array.make setups 0 in
  let keep = ref None in
  for i = 0 to setups - 1 do
    Option.iter (fun (_, release) -> release ()) !keep;
    let t0 = now () in
    let st = setup i in
    times.(i) <- now () - t0;
    keep := Some st
  done;
  Array.sort Int.compare times;
  match !keep with
  | Some (st, release) -> (float times.(setups / 2) /. 1e9, st, release)
  | None -> assert false

(* {1 Calibration} *)

let median_of s =
  match Samples.summarize s with Some m -> float m.Samples.p50 | None -> 0.

(* Median cost of one op, timed in [batches] batches of [per] ops:
   [run n] performs [n] ops.  For calls too short for a span of their
   own. *)
let per_op_ns ?(batches = 64) ~per run =
  let s = Samples.create batches in
  for _ = 1 to batches do
    let t0 = now () in
    run per;
    Samples.add s (now () - t0)
  done;
  median_of s /. float per

(* Unit costs of the substrate's calls, timed outside any register:
   one bulk copy of [len] words into a spare buffer, plain loads and
   fetch-and-adds on one cell. *)
let calibrate_mem (module M : Arc_mem.Mem_intf.S) ~src ~len =
  let spare = M.alloc len and cell = M.atomic 0 in
  let copy_ns =
    per_op_ns ~batches:(max 32 (min 2000 (4_000_000 / len))) ~per:1 (fun _ ->
        M.write_words spare ~src ~len)
  in
  let acc = ref 0 in
  let load_ns =
    per_op_ns ~per:1024 (fun n ->
        for _ = 1 to n do
          acc := !acc + M.load cell
        done)
  in
  let rmw_ns =
    per_op_ns ~per:1024 (fun n ->
        for _ = 1 to n do
          ignore (M.fetch_and_add cell 1)
        done)
  in
  ignore (Sys.opaque_identity !acc);
  (copy_ns, load_ns, rmw_ns)

(* {1 Metrics} *)

let rss_peak_mb () =
  try
    let ic = open_in "/proc/self/status" in
    let rec scan () =
      match input_line ic with
      | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" (fun kb ->
              float kb /. 1024.)
      | _ -> scan ()
      | exception End_of_file -> 0.
    in
    Fun.protect ~finally:(fun () -> close_in ic) scan
  with Sys_error _ -> 0.

let pct_label bp =
  if bp mod 100 = 0 then Printf.sprintf "p%d" (bp / 100)
  else Printf.sprintf "p%g" (float bp /. 100.)

let timing ?(div = 1) ?(tail = false) name s =
  match Samples.summarize s with
  | None -> Report.metric ~note:"no samples" name "ns" 0.
  | Some m ->
      let v, bp = if tail then (m.Samples.tail, m.tail_bp) else (m.p50, 5000) in
      let note =
        if Samples.seen s > m.n then
          Printf.sprintf "%s of %d kept, %d seen" (pct_label bp) m.n (Samples.seen s)
        else pct_label bp
      in
      Report.metric ~samples:m.n ~note name "ns" (float v /. float div)

let window_s p = float (p.w.t_end - p.w.t_meas) /. 1e9

let p50 ?(div = 1) s =
  match Samples.summarize s with
  | Some m -> float m.Samples.p50 /. float div
  | None -> 0.

let e2e ~setup_s ~read_div p =
  let win = window_s p in
  let open Report in
  [
    metric ~samples:setups ~note:"median of set-ups" "setup_s" "s" setup_s;
    timing ~div:read_div "read_p50_ns" p.rs.reads;
    timing ~div:read_div ~tail:true "read_p99_ns" p.rs.reads;
    metric ~samples:p.rs.n_reads "reads_per_s" "1/s" (float p.rs.n_reads /. win);
    timing "write_p50_ns" p.ws.writes;
    timing ~tail:true "write_p99_ns" p.ws.writes;
    metric ~samples:p.ws.n_writes "writes_per_s" "1/s" (float p.ws.n_writes /. win);
    timing "visible_p50_ns" p.rs.visible;
    timing ~tail:true "visible_p99_ns" p.rs.visible;
    timing ~tail:true "gen_late_p99_ns" p.ws.late;
    metric ~samples:p.rs.attempted
      ~note:(Printf.sprintf "%d failed of %d reads" p.rs.failed p.rs.attempted)
      "failed_frac" "ratio"
      (if p.rs.attempted = 0 then 0. else float p.rs.failed /. float p.rs.attempted);
    metric "rss_peak_mb" "MB" (rss_peak_mb ());
  ]

let info p =
  let open Report in
  metric "hw_cores" "count" (float hw_cores)
  :: metric "domains" "count" 2.
  :: timing "gen_late_p50_ns" p.ws.late
  :: metric "gc.minor_collections" "count" (float p.minor_gcs)
  :: Array.to_list
       (Array.mapi
          (fun i n -> metric ("failed." ^ n) "count" (float p.rs.kinds.(i)))
          kind_names)

(* The per-layer ledger.  Every workload emits every field; a layer
   the workload never calls reads 0. *)
type ledger = {
  read_hit_ns : float;
  read_miss_ns : float;
  hit_ratio : float;
  read_alloc_words : float;
  minor_gcs_per_s : float;
  copy_ns : float;
  load_ns : float;
  rmw_ns : float;
  write_words_ns : float;
  arc_write_ns : float;
  probes_per_write : float;
  hint_hit_ratio : float;
  snapshot_ns_per_shard : float;
  borrowed_ratio : float;
  retries_per_snapshot : float;
  deposits_per_write : float;
  fabric_write_ns : float;
  shard_copy_ns : float;
  stamp_ns : float;
  decode_ns : float;
  validate_ns : float;
  residual_read_ns : float;
  residual_write_ns : float;
  read_overhead_ns : float;
  write_overhead_ns : float;
  span_ns : float;
}

let ratio a b = if b = 0 then 0. else float a /. float b

(* Span-derived fields of the ledger, from the traced phase [t]; the
   untraced phase [u] gives the GC rate, the overhead baseline and the
   end-to-end medians the residuals are taken from.  [hit_ns] is timed
   in batches by the workload (a span around one hit costs more than
   the hit).  Telemetry-derived fields and the read residual, whose
   per-read layer sum depends on the workload's read, are left 0 for
   the workload to fill. *)
let ledger ~u ~t ~read_div ~shards ~hit_ns ~mem:(copy_ns, load_ns, rmw_ns) =
  let recs = [ t.rrec; t.wrec ] and overhead = Spans.calibrate () in
  let self = Spans.median_self ~overhead recs and total = Spans.median_total ~overhead recs in
  let open Layer in
  let arc_reads =
    List.fold_left (fun a r -> a + Spans.count r arc_read_hit + Spans.count r arc_read_miss) 0 recs
  in
  let arc_alloc =
    List.fold_left (fun a r -> a + Spans.alloc r arc_read_hit + Spans.alloc r arc_read_miss) 0 recs
  in
  {
    read_hit_ns = hit_ns;
    read_miss_ns = self arc_read_miss;
    hit_ratio = 0.;
    read_alloc_words = ratio arc_alloc arc_reads;
    minor_gcs_per_s = float u.minor_gcs /. u.phase_s;
    copy_ns;
    load_ns;
    rmw_ns;
    write_words_ns = total mem_write_words;
    arc_write_ns = total arc_write;
    probes_per_write = 0.;
    hint_hit_ratio = 0.;
    snapshot_ns_per_shard =
      (if shards = 0 then 0. else total fabric_snapshot /. float shards);
    borrowed_ratio = 0.;
    retries_per_snapshot = 0.;
    deposits_per_write = 0.;
    fabric_write_ns = total fabric_write;
    shard_copy_ns = self fabric_shard_copy;
    stamp_ns = self payload_stamp;
    decode_ns = self payload_decode;
    validate_ns = self payload_validate;
    residual_read_ns = 0.;
    (* The traced write's own [tc, tr] window holds the write layer's
       span: its raw duration plus the part of the span's cost that
       falls outside it. *)
    residual_write_ns =
      (let layer = if Spans.count t.wrec arc_write > 0 then arc_write else fabric_write in
       p50 t.ws.writes
       -. Spans.median_total recs layer
       -. (overhead.per_span -. overhead.inside));
    read_overhead_ns = p50 ~div:read_div t.rs.reads -. p50 ~div:read_div u.rs.reads;
    write_overhead_ns = p50 t.ws.writes -. p50 u.ws.writes;
    span_ns = overhead.per_span;
  }

let layer_metrics l =
  let open Report in
  let ns n v = metric n "ns" v and r n v = metric n "ratio" v in
  [
    ns "arc.read_hit_ns" l.read_hit_ns;
    ns "arc.read_miss_ns" l.read_miss_ns;
    r "arc.hit_ratio" l.hit_ratio;
    metric "arc.read_alloc_words" "words" l.read_alloc_words;
    metric "gc.minor_collections_per_s" "1/s" l.minor_gcs_per_s;
    ns "mem.copy_ns" l.copy_ns;
    ns "mem.load_ns" l.load_ns;
    ns "mem.rmw_ns" l.rmw_ns;
    ns "mem.write_words_ns" l.write_words_ns;
    ns "arc.write_ns" l.arc_write_ns;
    ns "arc.write_minus_copy_ns"
      (if l.arc_write_ns = 0. then 0. else l.arc_write_ns -. l.copy_ns);
    metric "arc.probes_per_write" "count" l.probes_per_write;
    r "arc.hint_hit_ratio" l.hint_hit_ratio;
    ns "fabric.snapshot_ns_per_shard" l.snapshot_ns_per_shard;
    r "fabric.borrowed_ratio" l.borrowed_ratio;
    metric "fabric.retries_per_snapshot" "count" l.retries_per_snapshot;
    metric "fabric.deposits_per_write" "count" l.deposits_per_write;
    ns "fabric.write_ns" l.fabric_write_ns;
    ns "fabric.shard_copy_ns" l.shard_copy_ns;
    ns "payload.stamp_ns" l.stamp_ns;
    ns "payload.decode_ns" l.decode_ns;
    ns "payload.validate_ns" l.validate_ns;
    ns "residual.read_ns" l.residual_read_ns;
    ns "residual.write_ns" l.residual_write_ns;
    ns "trace.read_overhead_ns" l.read_overhead_ns;
    ns "trace.write_overhead_ns" l.write_overhead_ns;
    ns "trace.span_ns" l.span_ns;
  ]

let write_trace cfg ~origin phase =
  match cfg.trace_out with
  | None -> None
  | Some path ->
      let oc = open_out path in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () -> Spans.write_chrome oc ~origin [ phase.rrec; phase.wrec ]);
      Some path

(* Everything a workload reports, from its untraced phase [u] and, when
   traced, its traced phase [t] with the workload's filled ledger. *)
let outcome cfg ~setup_s ~read_div ~u ~traced ~checks =
  let phases = u :: (match traced with Some (t, _) -> [ t ] | None -> []) in
  let attempted = List.fold_left (fun a p -> a + p.rs.attempted + p.ws.issued) 0 phases in
  let failed = List.fold_left (fun a p -> a + p.rs.failed) 0 phases in
  let layers, trace_note =
    match traced with
    | None -> ([], [])
    | Some (t, l) ->
        let dropped = Spans.dropped t.rrec + Spans.dropped t.wrec in
        let path = write_trace cfg ~origin:t.w.t_start t in
        ( layer_metrics l,
          (match path with
          | Some p -> [ Printf.sprintf "chrome trace %s (%d spans past the buffer not kept)" p dropped ]
          | None -> []) )
  in
  {
    Report.e2e = e2e ~setup_s ~read_div u;
    layers;
    info = info u;
    attempted = max 1 attempted;
    failed;
    checks;
    notes = trace_note;
  }
