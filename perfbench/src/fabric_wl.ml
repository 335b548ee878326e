(* fabric-64x64: a heap fabric of 64 shards of 64 words with a reign
   (configuration epoch) attached and never bumped.  The writer is
   open-loop: a burst of [burst] writes every [period_ns], paced by
   sleeping, to seeded skewed shards — half the writes go to [hot]
   hot shards, so a shard is sometimes modified twice during one scan
   and the scan borrows a helping deposit.  The reader runs a closed
   loop of [snapshot_certified] and validates every shard of every
   snapshot, so probe passes, epoch brackets and helping dominate while
   each per-register write is small. *)

let shards = 64
let words = 64
let burst = 8
let period_ns = 1_000_000
let hot = 4

module Make (M : Arc_mem.Mem_intf.S) = struct
  module R = Arc_core.Arc.Make (M)
  module F = Arc_fabric.Fabric.Make (R)
  module P = Arc_workload.Payload.Make (M)

  type st = {
    regs : R.t array;
    fab : F.t;
    sc : F.scanner;
    wr : F.writer;
    src : int array;
    jitter : int array;
    target : int array;  (* shard of write k, by [k land table_mask] *)
    first : int array;  (* per shard: index of its first write, 0 = none yet *)
    log : Harness.wlog;
  }

  let targets ~seed =
    let g = Arc_util.Splitmix.of_int (seed lxor 0x5eed) in
    let hot_set = Array.init hot (fun _ -> Arc_util.Splitmix.int g shards) in
    Array.init (1 lsl Harness.table_bits) (fun _ ->
        if Arc_util.Splitmix.bool g then hot_set.(Arc_util.Splitmix.int g hot)
        else Arc_util.Splitmix.int g shards)

  let setup ~seed ~telemetry =
    let log = Harness.wlog (Harness.seq_base seed) in
    let init = Array.make words 0 in
    P.stamp init ~seq:log.base ~len:words;
    (* One reader identity for the scanner, one for the writer's
       helping collects. *)
    let regs = Array.init shards (fun _ -> R.create ~readers:2 ~capacity:words ~init) in
    if telemetry then
      Array.iter (fun r -> R.set_telemetry r (Some (R.make_telemetry ~readers:2 ()))) regs;
    let fab = F.of_registers regs ~writers:1 ~readers:1 ~capacity:words in
    F.attach_reign fab ~config:(M.atomic 1);
    {
      regs;
      fab;
      sc = F.scanner fab 0;
      wr = F.writer fab 0;
      src = Array.make words 0;
      jitter = Harness.jitter_table ~seed ~amp:(period_ns / 4);
      target = targets ~seed;
      first = Array.make shards 0;
      log;
    }

  (* [last_write.(s)] is the writer's last write to shard [s]; before
     publishing write [k] to [s] it links that write (or the shard's
     [first] cell) to [k], which is what lets the reader check that a
     snapshot is a consistent cut. *)
  let writer st ~traced (w : Harness.window) stop ws =
    let sp = Spans.current () in
    let log = st.log in
    let last_write = Array.make shards 0 in
    let k = ref 0 and b = ref 0 in
    while not (Atomic.get stop) do
      incr b;
      let due = w.t_start + (!b * period_ns) + st.jitter.(!b land Harness.table_mask) in
      if Clock.now_ns () < due then Clock.sleep_until due;
      for _ = 1 to burst do
        incr k;
        let k = !k in
        let s = st.target.(k land Harness.table_mask) in
        if traced then begin
          Spans.enter sp;
          Spans.enter sp
        end;
        P.stamp st.src ~seq:(log.base + k) ~len:words;
        if traced then Spans.leave sp Layer.payload_stamp;
        let tc = Clock.now_ns () in
        Harness.log_write log k ~shard:s ~tc;
        let prev = last_write.(s) in
        if prev = 0 then st.first.(s) <- k
        else if Harness.logged log prev then log.next_same.(prev land Harness.ring_mask) <- k;
        last_write.(s) <- k;
        if traced then Spans.enter sp;
        F.write st.wr ~shard:s ~src:st.src ~len:words;
        if traced then Spans.leave sp Layer.fabric_write;
        let tr = Clock.now_ns () in
        if traced then Spans.leave sp Layer.write;
        Atomic.set log.completed k;
        Harness.record_write ws w ~due ~tc ~tr
      done
    done

  (* A snapshot of validated per-shard seqs passes when every shard
     moved forward, holds a write made to that shard, the vector is the
     state after write [cut] (its newest write) — no shard has a later
     write at or before [cut] — and it is at least as new as the write
     that had completed before the snapshot began. *)
  let check st rs ~last ~seqs ~done_before =
    let log = st.log in
    let cut = ref 0 in
    for s = 0 to shards - 1 do
      if seqs.(s) - log.base > !cut then cut := seqs.(s) - log.base
    done;
    let verdict = ref (-1) in
    for s = 0 to shards - 1 do
      let k = seqs.(s) - log.base in
      if seqs.(s) < last.(s) then verdict := Harness.out_of_order
      else if k = 0 then begin
        let f = st.first.(s) in
        if f <> 0 && f <= !cut then verdict := Harness.split
      end
      else if Harness.logged log k then begin
        let i = k land Harness.ring_mask in
        let next = log.next_same.(i) in
        if log.shard.(i) <> s then verdict := Harness.torn
        else if Harness.logged log k && next <> 0 && next <= !cut then
          verdict := Harness.split
      end
    done;
    (if done_before > 0 && Harness.logged log done_before then
       let s = log.shard.(done_before land Harness.ring_mask) in
       if seqs.(s) - log.base < done_before then verdict := Harness.stale);
    if !verdict >= 0 then Harness.fail rs !verdict;
    !verdict < 0

  let reader st ~traced (w : Harness.window) (rs : Harness.rside) =
    let sp = Spans.current () in
    let log = st.log in
    let last = Array.make shards log.base in
    let seqs = Array.make shards 0 in
    let dst = Array.init shards (fun _ -> Array.make words 0) in
    let running = ref true in
    while !running do
      let done_before = Atomic.get log.completed in
      let t0 = Clock.now_ns () in
      if traced then begin
        Spans.enter sp;
        Spans.enter sp
      end;
      let r = F.snapshot_certified st.sc in
      if traced then Spans.leave sp Layer.fabric_snapshot;
      let t_view = Clock.now_ns () in
      let ok =
        match r with
        | Error _ ->
            Harness.fail rs Harness.refused;
            false
        | Ok snap when F.snap_epoch snap <> 1 ->
            Harness.fail rs Harness.refused;
            false
        | Ok snap ->
            if traced then Spans.enter sp;
            for s = 0 to shards - 1 do
              ignore (F.shard_copy snap s ~dst:dst.(s))
            done;
            if traced then Spans.leave sp Layer.fabric_shard_copy;
            let good = ref true in
            for s = 0 to shards - 1 do
              if traced then Spans.enter sp;
              (match P.validate_words dst.(s) ~len:(F.shard_len snap s) with
              | Ok seq -> seqs.(s) <- seq
              | Error _ -> good := false);
              if traced then Spans.leave sp Layer.payload_validate
            done;
            if not !good then Harness.fail rs Harness.torn;
            !good && check st rs ~last ~seqs ~done_before
      in
      if traced then Spans.leave sp Layer.read;
      let t1 = Clock.now_ns () in
      rs.attempted <- rs.attempted + 1;
      if ok then
        for s = 0 to shards - 1 do
          if seqs.(s) > last.(s) then begin
            Harness.observe_visible rs w log ~k:(seqs.(s) - log.base) ~t_obs:t_view;
            last.(s) <- seqs.(s)
          end
        done;
      if Harness.in_window w t1 then begin
        Samples.add rs.reads (t1 - t0);
        rs.n_reads <- rs.n_reads + 1
      end;
      if t1 >= w.t_end then running := false
    done

  (* Quiesced: a last snapshot holds every shard's last write, and
     every shard register's presence ledger balances. *)
  let quiesced st =
    let log = st.log in
    let expect = Array.make shards log.base in
    let n = Atomic.get log.completed in
    for k = max 1 (n - Harness.ring_mask) to n do
      if Harness.logged log k then expect.(log.shard.(k land Harness.ring_mask)) <- log.base + k
    done;
    let dst = Array.make words 0 in
    let fresh =
      match F.snapshot_certified st.sc with
      | Error _ -> false
      | Ok snap ->
          let ok = ref true in
          for s = 0 to shards - 1 do
            let len = F.shard_copy snap s ~dst in
            match P.validate_words dst ~len with
            | Ok seq -> if seq <> expect.(s) then ok := false
            | Error _ -> ok := false
          done;
          !ok
    in
    [
      ("fabric: last snapshot = every shard's last write", fresh);
      ( "fabric: Arc.Debug.presence_bound_holds on every shard",
        Array.for_all R.Debug.presence_bound_holds st.regs );
    ]

  let phase st ~seconds ~traced =
    let p =
      Harness.run_phase ~seconds ~traced ~writer:(writer st ~traced)
        ~reader:(reader st ~traced)
    in
    (p, quiesced st)

  let sum f = Array.fold_left (fun a r -> a + f r) 0
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
      let module T = Traced in
      let tels = Array.map (fun r -> Option.get (T.R.telemetry r)) ts.regs in
      let tsum f = Array.fold_left (fun a tel -> a + f tel) 0 tels in
      let fast = tsum T.R.fast_reads and slow = tsum T.R.slow_reads in
      let writes = T.sum T.R.writes ts.regs in
      let direct = T.F.snapshots_direct ts.fab and borrowed = T.F.snapshots_borrowed ts.fab in
      let mem = Harness.calibrate_mem (module Arc_mem.Real_mem) ~src:ts.src ~len:words in
      let l = Harness.ledger ~u ~t ~read_div:1 ~shards ~hit_ns:0. ~mem in
      (* A read is one certified snapshot, the copy of its shards out of
         the snapshot, and one validation per shard. *)
      let per_read =
        (l.snapshot_ns_per_shard *. float shards)
        +. l.shard_copy_ns
        +. (l.validate_ns *. float shards)
      in
      let l =
        {
          l with
          hit_ratio = Harness.ratio fast (fast + slow);
          probes_per_write = Harness.ratio (T.sum T.R.write_probes ts.regs) writes;
          hint_hit_ratio = Harness.ratio (tsum T.R.hint_hits) writes;
          borrowed_ratio = Harness.ratio borrowed (direct + borrowed);
          retries_per_snapshot = Harness.ratio (T.F.snapshot_retries ts.fab) (direct + borrowed);
          deposits_per_write = Harness.ratio (T.F.deposits_made ts.fab) writes;
          residual_read_ns = Harness.p50 u.rs.reads -. per_read;
        }
      in
      (Some (t, l), checks @ tchecks)
    end
  in
  Harness.outcome cfg ~setup_s ~read_div:1 ~u ~traced ~checks
