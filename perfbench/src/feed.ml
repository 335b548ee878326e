(* feed-4k: one 4 KB ARC register on the heap, one reader identity.
   The writer is open-loop — a freshly stamped value every
   [period_ns], paced by sleeping, with seeded jitter — so reads
   outnumber writes by thousands to one, the paper's target regime.
   The reader runs a closed loop of [read_with] + [decode_seq] and
   validates every word on every [batch]-th read; reads are timed per
   batch. *)

let words = Arc_workload.Payload.size_4kb
let period_ns = 500_000
let batch = 64
let trace_every = 16

module Make (M : Arc_mem.Mem_intf.S) = struct
  module R = Arc_core.Arc.Make (M)
  module P = Arc_workload.Payload.Make (M)

  type st = {
    reg : R.t;
    rd : R.reader;
    src : int array;
    jitter : int array;
    log : Harness.wlog;
  }

  let setup ~seed ~telemetry =
    let log = Harness.wlog (Harness.seq_base seed) in
    let init = Array.make words 0 in
    P.stamp init ~seq:log.base ~len:words;
    let reg = R.create ~readers:1 ~capacity:words ~init in
    if telemetry then R.set_telemetry reg (Some (R.make_telemetry ~readers:1 ()));
    {
      reg;
      rd = R.reader reg 0;
      src = Array.make words 0;
      jitter = Harness.jitter_table ~seed ~amp:(period_ns / 4);
      log;
    }

  let writer st ~traced (w : Harness.window) stop ws =
    let sp = Spans.current () in
    let log = st.log in
    let k = ref 0 in
    while not (Atomic.get stop) do
      incr k;
      let k = !k in
      let due = w.t_start + (k * period_ns) + st.jitter.(k land Harness.table_mask) in
      if Clock.now_ns () < due then Clock.sleep_until due;
      if traced then begin
        Spans.enter sp;
        Spans.enter sp
      end;
      P.stamp st.src ~seq:(log.base + k) ~len:words;
      if traced then Spans.leave sp Layer.payload_stamp;
      let tc = Clock.now_ns () in
      Harness.log_write log k ~shard:0 ~tc;
      if traced then Spans.enter sp;
      R.write st.reg ~src:st.src ~len:words;
      if traced then Spans.leave sp Layer.arc_write;
      let tr = Clock.now_ns () in
      if traced then Spans.leave sp Layer.write;
      Atomic.set log.completed k;
      Harness.record_write ws w ~due ~tc ~tr
    done

  let reader st ~traced (w : Harness.window) (rs : Harness.rside) =
    let sp = Spans.current () in
    let log = st.log and rd = st.rd in
    let last = ref log.base in
    let f_decode buf _ = P.decode_seq buf in
    let f_validate buf len = match P.validate buf ~len with Ok s -> s | Error _ -> -1 in
    let f_decode_t buf _ =
      Spans.enter sp;
      let s = P.decode_seq buf in
      Spans.leave sp Layer.payload_decode;
      s
    in
    let f_validate_t buf len =
      Spans.enter sp;
      let s = f_validate buf len in
      Spans.leave sp Layer.payload_validate;
      s
    in
    let traced_read f =
      Spans.enter sp;
      Spans.enter sp;
      let s = R.read_with rd ~f in
      Spans.leave sp (if s = !last then Layer.arc_read_hit else Layer.arc_read_miss);
      Spans.leave sp Layer.read;
      s
    in
    (* A read must not go back nor be older than [fresh], and a new seq
       must be one the writer logged: an unvalidated read only decodes
       word 0, so a seq nobody wrote is the sign of a torn view. *)
    let observe s ~fresh =
      let kind =
        if s < 0 then Harness.torn
        else if s < !last then Harness.out_of_order
        else if s < fresh then Harness.stale
        else if s <> !last && not (Harness.logged log (s - log.base)) then Harness.torn
        else -1
      in
      if kind >= 0 then Harness.fail rs kind
      else if s <> !last then begin
        Harness.observe_visible rs w log ~k:(s - log.base) ~t_obs:(Clock.now_ns ());
        last := s
      end
    in
    let running = ref true in
    while !running do
      let t0 = Clock.now_ns () in
      for i = 0 to batch - 2 do
        let s =
          if traced && i land (trace_every - 1) = 0 then traced_read f_decode_t
          else R.read_with rd ~f:f_decode
        in
        observe s ~fresh:0
      done;
      let fresh = log.base + Atomic.get log.completed in
      let s = if traced then traced_read f_validate_t else R.read_with rd ~f:f_validate in
      observe s ~fresh;
      let t1 = Clock.now_ns () in
      rs.attempted <- rs.attempted + batch;
      if Harness.in_window w t1 then begin
        Samples.add rs.reads (t1 - t0);
        rs.n_reads <- rs.n_reads + batch
      end;
      if t1 >= w.t_end then running := false
    done

  (* On the quiesced register every read is an R2 hit. *)
  let hit_ns st =
    let f _ _ = 0 in
    Harness.per_op_ns ~per:1024 (fun n ->
        for _ = 1 to n do
          ignore (R.read_with st.rd ~f)
        done)

  (* Quiesced: the writer is joined.  A last read must return the last
     completed write, and Lemma 4.1's presence ledger must balance. *)
  let quiesced st =
    let s = R.read_with st.rd ~f:(fun buf len ->
        match P.validate buf ~len with Ok s -> s | Error _ -> -1)
    in
    [
      ("feed: last read = last completed write", s = st.log.base + Atomic.get st.log.completed);
      ("feed: Arc.Debug.presence_bound_holds", R.Debug.presence_bound_holds st.reg);
    ]

  let phase st ~seconds ~traced =
    let p =
      Harness.run_phase ~seconds ~traced ~writer:(writer st ~traced)
        ~reader:(reader st ~traced)
    in
    (p, quiesced st)
end

module Plain = Make (Arc_mem.Real_mem)
module Traced = Make (Traced_mem.Make (Arc_mem.Real_mem))

let run (cfg : Harness.config) =
  let setup_s, st, _ =
    Harness.time_setups (fun _ -> (Plain.setup ~seed:cfg.seed ~telemetry:false, ignore))
  in
  let seconds = if cfg.trace then cfg.seconds /. 2. else cfg.seconds in
  let u, checks = Plain.phase st ~seconds ~traced:false in
  let traced, checks =
    if not cfg.trace then (None, checks)
    else begin
      let ts = Traced.setup ~seed:cfg.seed ~telemetry:true in
      let t, tchecks = Traced.phase ts ~seconds ~traced:true in
      (* Counters first: the calibration reads below are hits too. *)
      let tel = Option.get (Traced.R.telemetry ts.reg) in
      let fast = Traced.R.fast_reads tel and slow = Traced.R.slow_reads tel in
      let writes = Traced.R.writes ts.reg in
      let mem = Harness.calibrate_mem (module Arc_mem.Real_mem) ~src:ts.src ~len:words in
      let l = Harness.ledger ~u ~t ~read_div:batch ~shards:0 ~hit_ns:(Traced.hit_ns ts) ~mem in
      let hit_ratio = Harness.ratio fast (fast + slow) in
      (* A read is an R2 hit or an R3+R4 miss, decodes word 0, and one
         read in [batch] validates every word instead. *)
      let per_read =
        (hit_ratio *. l.read_hit_ns)
        +. ((1. -. hit_ratio) *. l.read_miss_ns)
        +. (l.decode_ns *. float (batch - 1) /. float batch)
        +. (l.validate_ns /. float batch)
      in
      let l =
        {
          l with
          hit_ratio;
          residual_read_ns = Harness.p50 ~div:batch u.rs.reads -. per_read;
          probes_per_write = Harness.ratio (Traced.R.write_probes ts.reg) writes;
          hint_hit_ratio = Harness.ratio (Traced.R.hint_hits tel) writes;
        }
      in
      (Some (t, l), checks @ tchecks)
    end
  in
  Harness.outcome cfg ~setup_s ~read_div:batch ~u ~traced ~checks
