(* bulk-128k-shm: one 128 KB ARC register (the paper's largest size)
   in a shared-memory mapping, driven from one process.  The register
   has 8 reader identities and 7 of them are parked on older slots at
   set-up, so the writer's free-slot search (W1) must step past pinned
   slots, and the 10 slots of 128 KB overflow L2.  The writer is
   closed-loop; the reader validates every word of every read (the
   paper's processing workload), so the payload copy, the shm checksum
   trailer, W1/W2/W3 and the R3+R4 read dominate and R2 hits are
   rare. *)

let words = Arc_workload.Payload.size_128kb
let readers = 8
let parked = readers - 1

(* Slots, their trailers, the spare calibration buffer and cells. *)
let mapping_words = ((readers + 3) * (words + 256)) + 65_536

type inst = {
  phase : float -> Harness.phase * (string * bool) list;
  ledger : u:Harness.phase -> t:Harness.phase -> Harness.ledger;
}

module Core (M : Arc_mem.Mem_intf.S) = struct
  module R = Arc_core.Arc.Make (M)
  module P = Arc_workload.Payload.Make (M)

  type st = { reg : R.t; rd : R.reader; src : int array; log : Harness.wlog }

  let setup ~seed ~telemetry =
    let log = Harness.wlog (Harness.seq_base seed) in
    let src = Array.make words 0 in
    P.stamp src ~seq:log.base ~len:words;
    let reg = R.create ~readers ~capacity:words ~init:src in
    if telemetry then R.set_telemetry reg (Some (R.make_telemetry ~readers ()));
    let handles = Array.init readers (R.reader reg) in
    for k = 1 to parked do
      P.stamp src ~seq:(log.base + k) ~len:words;
      Harness.log_write log k ~shard:0 ~tc:(Clock.now_ns ());
      R.write reg ~src ~len:words;
      Atomic.set log.completed k;
      ignore (R.read_with handles.(k) ~f:(fun buf _ -> P.decode_seq buf))
    done;
    { reg; rd = handles.(0); src; log }

  let writer st ~traced (w : Harness.window) stop ws =
    let sp = Spans.current () in
    let log = st.log in
    let k = ref (Atomic.get log.completed) in
    let prev = ref (Clock.now_ns ()) in
    while not (Atomic.get stop) do
      incr k;
      let k = !k in
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
      (* Closed loop: each write is due when the previous one returns. *)
      Harness.record_write ws w ~due:!prev ~tc ~tr;
      prev := tr
    done

  let reader st ~traced (w : Harness.window) (rs : Harness.rside) =
    let sp = Spans.current () in
    let log = st.log and rd = st.rd in
    let last = ref log.base and t_view = ref 0 in
    (* The reader holds the value from the callback's entry on; the
       validation that follows is part of the read, not of the value's
       trip to the reader. *)
    let f_validate buf len =
      t_view := Clock.now_ns ();
      match P.validate buf ~len with Ok s -> s | Error _ -> -1
    in
    let f_validate_t buf len =
      Spans.enter sp;
      let s = f_validate buf len in
      Spans.leave sp Layer.payload_validate;
      s
    in
    let running = ref true in
    while !running do
      let before = log.base + Atomic.get log.completed in
      let t0 = Clock.now_ns () in
      let s =
        if traced then begin
          Spans.enter sp;
          Spans.enter sp;
          let s = R.read_with rd ~f:f_validate_t in
          Spans.leave sp (if s = !last then Layer.arc_read_hit else Layer.arc_read_miss);
          Spans.leave sp Layer.read;
          s
        end
        else R.read_with rd ~f:f_validate
      in
      let t1 = Clock.now_ns () in
      rs.attempted <- rs.attempted + 1;
      let kind =
        if s < 0 then Harness.torn
        else if s < !last then Harness.out_of_order
        else if s < before then Harness.stale
        else -1
      in
      if kind >= 0 then Harness.fail rs kind
      else if s > !last then begin
        Harness.observe_visible rs w log ~k:(s - log.base) ~t_obs:!t_view;
        last := s
      end;
      if Harness.in_window w t1 then begin
        Samples.add rs.reads (t1 - t0);
        rs.n_reads <- rs.n_reads + 1
      end;
      if t1 >= w.t_end then running := false
    done

  let hit_ns st =
    let f _ _ = 0 in
    Harness.per_op_ns ~per:1024 (fun n ->
        for _ = 1 to n do
          ignore (R.read_with st.rd ~f)
        done)

  (* Quiesced checks, including the durability layer's view: the most
     recent verified snapshot in the mapping must be the last
     completed write. *)
  let quiesced st m =
    let last = st.log.base + Atomic.get st.log.completed in
    let s = R.read_with st.rd ~f:(fun buf len ->
        match P.validate buf ~len with Ok s -> s | Error _ -> -1)
    in
    let latest =
      match Arc_shm.Shm_mem.read_latest m with
      | Some (_, payload) -> (
          match P.validate_words payload ~len:(Array.length payload) with
          | Ok seq -> seq = last
          | Error _ -> false)
      | None -> false
    in
    [
      ("bulk: last read = last completed write", s = last);
      ("bulk: Arc.Debug.presence_bound_holds", R.Debug.presence_bound_holds st.reg);
      ("bulk: Shm_mem.read_latest = last completed write", latest);
    ]

  let instance ~seed ~traced ~m ~calib =
    let st = setup ~seed ~telemetry:traced in
    Arc_shm.Shm_mem.set_geometry m ~readers ~capacity:words;
    let phase seconds =
      let p =
        Harness.run_phase ~seconds ~traced ~writer:(writer st ~traced)
          ~reader:(reader st ~traced)
      in
      (p, quiesced st m)
    in
    let ledger ~u ~t =
      (* Counters first: the calibration reads below are hits too. *)
      let tel = Option.get (R.telemetry st.reg) in
      let fast = R.fast_reads tel and slow = R.slow_reads tel in
      let writes = R.writes st.reg in
      let mem = Harness.calibrate_mem calib ~src:st.src ~len:words in
      let l = Harness.ledger ~u ~t ~read_div:1 ~shards:0 ~hit_ns:(hit_ns st) ~mem in
      let hit_ratio = Harness.ratio fast (fast + slow) in
      let per_read =
        (hit_ratio *. l.read_hit_ns) +. ((1. -. hit_ratio) *. l.read_miss_ns) +. l.validate_ns
      in
      {
        l with
        hit_ratio;
        residual_read_ns = Harness.p50 u.rs.reads -. per_read;
        probes_per_write = Harness.ratio (R.write_probes st.reg) writes;
        hint_hit_ratio = Harness.ratio (R.hint_hits tel) writes;
      }
    in
    { phase; ledger }
end

let instance (cfg : Harness.config) ~traced i =
  let path =
    Filename.concat cfg.tmp_dir
      (Printf.sprintf "perfbench-bulk-%d-%d.shm" (Unix.getpid ()) i)
  in
  let m = Arc_shm.Shm_mem.create ~path ~words:mapping_words in
  let release () =
    Arc_shm.Shm_mem.close m;
    try Sys.remove path with Sys_error _ -> ()
  in
  let module M = (val Arc_shm.Shm_mem.mem m) in
  let calib = (module M : Arc_mem.Mem_intf.S) in
  let inst =
    try
      if traced then
        let module C = Core (Traced_mem.Make (M)) in
        C.instance ~seed:cfg.seed ~traced ~m ~calib
      else
        let module C = Core (M) in
        C.instance ~seed:cfg.seed ~traced ~m ~calib
    with e ->
      release ();
      raise e
  in
  (inst, release)

let run (cfg : Harness.config) =
  let setup_s, inst, release = Harness.time_setups (instance cfg ~traced:false) in
  let seconds = if cfg.trace then cfg.seconds /. 2. else cfg.seconds in
  let u, checks = Fun.protect ~finally:release (fun () -> inst.phase seconds) in
  let traced, checks =
    if not cfg.trace then (None, checks)
    else begin
      let ti, release = instance cfg ~traced:true Harness.setups in
      Fun.protect ~finally:release (fun () ->
          let t, tchecks = ti.phase seconds in
          (Some (t, ti.ledger ~u ~t), checks @ tchecks))
    end
  in
  Harness.outcome cfg ~setup_s ~read_div:1 ~u ~traced ~checks
