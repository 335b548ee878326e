(* Sharded register fabric (ISSUE 6): single-threaded semantics,
   capability discovery, adversarial vsched campaigns judged by the
   cross-shard checker, the wait-freedom retry bound, and the
   collect-only negative control the checker must convict. *)

module Config = Arc_harness.Config
module Registry = Arc_harness.Registry
module Fabric_runner = Arc_harness.Fabric_runner
module Checker = Arc_trace.Checker
module History = Arc_trace.History
module Strategy = Arc_vsched.Strategy
module Arc_real = Arc_core.Arc.Make (Arc_mem.Real_mem)
module F = Arc_fabric.Fabric.Make (Arc_real)

(* {2 Single-threaded fabric semantics (Real_mem)} *)

let mk ?(shards = 4) ?(writers = 2) ?(readers = 2) ?(capacity = 8) () =
  F.create ~shards ~writers ~readers ~capacity ~init:(Array.make capacity 0)

(* A certified snapshot where no election runs: it must certify. *)
let certified sc =
  match F.snapshot_certified sc with
  | Ok snap -> snap
  | Error _ -> Alcotest.fail "no election is running — certification must hold"

let test_create_validation () =
  let raises f = Alcotest.check_raises "invalid_arg" (Invalid_argument "") f in
  let check_invalid f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "expected Invalid_argument"
  in
  ignore raises;
  check_invalid (fun () -> mk ~shards:0 ());
  check_invalid (fun () -> mk ~writers:0 ());
  check_invalid (fun () -> mk ~writers:5 ~shards:4 ());
  check_invalid (fun () -> mk ~readers:0 ());
  let fab = mk () in
  Alcotest.(check int) "shards" 4 (F.shards fab);
  Alcotest.(check int) "writers" 2 (F.writers fab);
  Alcotest.(check int) "readers" 2 (F.readers fab);
  Alcotest.(check int) "capacity" 8 (F.capacity fab);
  check_invalid (fun () -> F.scanner fab 2);
  check_invalid (fun () -> F.writer fab 2)

let test_ownership () =
  let fab = mk () in
  Alcotest.(check int) "shard 0" 0 (F.owner_of fab 0);
  Alcotest.(check int) "shard 1" 1 (F.owner_of fab 1);
  Alcotest.(check int) "shard 2" 0 (F.owner_of fab 2);
  let w1 = F.writer fab 1 in
  let src = Array.make 8 7 in
  (match F.write w1 ~shard:0 ~src ~len:8 with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "foreign-shard write must be rejected");
  F.write w1 ~shard:1 ~src ~len:8

let test_snapshot_contents () =
  let fab = mk () in
  let w0 = F.writer fab 0 and w1 = F.writer fab 1 in
  let sc = F.scanner fab 0 in
  let buf = Array.make 8 0 in
  (* Initial snapshot: all shards hold the init value, stamp 1. *)
  let snap = certified sc in
  Alcotest.(check bool) "direct" false (F.borrowed snap);
  for s = 0 to 3 do
    Alcotest.(check int) "init len" 8 (F.shard_len snap s);
    Alcotest.(check int) "init stamp" 1 (F.shard_stamp snap s);
    Alcotest.(check int) "init word" 0 (F.shard_word snap s 0)
  done;
  (* Distinct payloads per shard, then snapshot again. *)
  for s = 0 to 3 do
    Array.fill buf 0 8 (100 + s);
    let w = if s mod 2 = 0 then w0 else w1 in
    F.write w ~shard:s ~src:buf ~len:6
  done;
  let snap = certified sc in
  for s = 0 to 3 do
    Alcotest.(check int) "len" 6 (F.shard_len snap s);
    Alcotest.(check int) "stamp" 2 (F.shard_stamp snap s);
    Alcotest.(check int) "word" (100 + s) (F.shard_word snap s 5);
    let dst = Array.make 8 0 in
    Alcotest.(check int) "copy len" 6 (F.shard_copy snap s ~dst);
    Alcotest.(check int) "copy word" (100 + s) dst.(0)
  done;
  (* Point reads agree with the snapshot. *)
  let dst = Array.make 8 0 in
  Alcotest.(check int) "read len" 6 (F.read sc ~shard:2 ~dst);
  Alcotest.(check int) "read word" 102 dst.(0);
  Alcotest.(check int) "read_with" 103 (F.read_with sc ~shard:3 ~f:(fun b _ ->
      Arc_mem.Real_mem.read_word b 0));
  (* Telemetry: two direct snapshots, no helping traffic. *)
  Alcotest.(check int) "direct total" 2 (F.snapshots_direct fab);
  Alcotest.(check int) "borrowed total" 0 (F.snapshots_borrowed fab);
  Alcotest.(check int) "retries" 0 (F.snapshot_retries fab);
  Alcotest.(check int) "deposits" 0 (F.deposits_made fab);
  Alcotest.(check int) "shard writes" 1 (F.shard_writes fab 2);
  Alcotest.(check bool) "metrics nonempty" true (F.metrics fab <> [])

let test_unvalidated_single_threaded () =
  (* Without concurrency the negative control is indistinguishable
     from the real snapshot — its defect exists only under races. *)
  let fab = mk () in
  let w0 = F.writer fab 0 in
  let src = Array.make 8 42 in
  F.write w0 ~shard:0 ~src ~len:8;
  let snap = F.snapshot_unvalidated (F.scanner fab 0) in
  Alcotest.(check int) "word" 42 (F.shard_word snap 0 0);
  Alcotest.(check int) "stamp" 2 (F.shard_stamp snap 0)

(* {2 Capability discovery (satellite: no hard-coded name lists)} *)

let test_discovery () =
  let eligible = Registry.fabric_capable Registry.all in
  let names = List.map (fun e -> e.Registry.name) eligible in
  Alcotest.(check (list string))
    "exactly the stamped family" [ "arc"; "arc-nohint"; "arc-dynamic" ] names;
  List.iter
    (fun (e : Registry.entry) ->
      Alcotest.(check bool)
        (e.Registry.name ^ " caps bit")
        true e.Registry.caps.Arc_core.Register_intf.snapshot_read;
      Alcotest.(check bool)
        (e.Registry.name ^ " has runner")
        true
        (Option.is_some e.Registry.run_fabric_sim))
    eligible;
  List.iter
    (fun (e : Registry.entry) ->
      if not (List.mem e.Registry.name names) then
        Alcotest.(check bool)
          (e.Registry.name ^ " not eligible")
          false e.Registry.caps.Arc_core.Register_intf.snapshot_read)
    Registry.all

(* {2 Adversarial campaigns under the virtual scheduler} *)

let base_cfg =
  {
    Config.fab_shards = 4;
    fab_writers = 2;
    fab_scanners = 2;
    fab_size_words = 16;
    fab_steps = 20_000;
    fab_seed = 0;
    fab_atomic = true;
  }

let strategies ~fibers seed =
  [
    ("random", Strategy.random ~seed);
    ("burst", Strategy.random_burst ~seed ~max_burst:60);
    ( "steal",
      Strategy.steal ~seed
        ~base:(Strategy.random ~seed:(seed + 1))
        ~probability:0.01 ~min_pause:50 ~max_pause:400 );
    ("pct", Strategy.pct ~seed ~fibers ~depth:4 ~expected_steps:20_000);
  ]

let run_campaign ~(cfg : Config.fabric_sim) ~seeds (entry : Registry.entry) =
  let run = Option.get entry.Registry.run_fabric_sim in
  let fibers = cfg.Config.fab_writers + cfg.Config.fab_scanners in
  let acc = ref [] in
  for seed = 1 to seeds do
    List.iter
      (fun (strategy_name, strategy) ->
        let r = run ~strategy { cfg with Config.fab_seed = seed } in
        acc := (strategy_name, seed, r) :: !acc)
      (strategies ~fibers seed)
  done;
  List.rev !acc

let test_atomic_campaign () =
  let bound_passes (cfg : Config.fabric_sim) (r : Fabric_runner.result) =
    (* Every scan — public or a writer's helping scan (one per
       deposit) — retries at most 2·shards + 3 times. *)
    let scans = r.Fabric_runner.fr_snapshots + r.Fabric_runner.fr_deposits in
    r.Fabric_runner.fr_retries <= scans * ((2 * cfg.Config.fab_shards) + 3)
  in
  let direct = ref 0 and borrowed = ref 0 and retries = ref 0 in
  List.iter
    (fun (entry : Registry.entry) ->
      List.iter
        (fun (strategy_name, seed, (r : Fabric_runner.result)) ->
          let fail fmt =
            Alcotest.failf
              ("%s under %s(seed=%d): " ^^ fmt)
              entry.Registry.name strategy_name seed
          in
          if r.Fabric_runner.fr_torn > 0 then
            fail "%d within-shard torn values" r.Fabric_runner.fr_torn;
          if strategy_name <> "pct" then begin
            (* PCT's strict priorities may legitimately starve a fiber
               class; the fair-ish strategies must make progress. *)
            if r.Fabric_runner.fr_writes = 0 then fail "no writes";
            if r.Fabric_runner.fr_snapshots = 0 then fail "no snapshots"
          end;
          if not (bound_passes base_cfg r) then
            fail "retry bound violated: %d retries over %d scans"
              r.Fabric_runner.fr_retries
              (r.Fabric_runner.fr_snapshots + r.Fabric_runner.fr_deposits);
          (match Fabric_runner.check r with
          | Ok report ->
            Alcotest.(check int)
              "all snapshots judged" (List.length r.Fabric_runner.fr_snapshot_obs)
              report.Checker.snapshots_checked
          | Error v -> fail "%a" Checker.pp_fabric_violation v);
          direct := !direct + (r.Fabric_runner.fr_snapshots - r.Fabric_runner.fr_borrowed);
          borrowed := !borrowed + r.Fabric_runner.fr_borrowed;
          retries := !retries + r.Fabric_runner.fr_retries)
        (run_campaign ~cfg:base_cfg ~seeds:6 entry))
    (Registry.fabric_capable Registry.all);
  (* Both snapshot regimes must actually occur across the campaign:
     clean/once-modified collects certified directly, and
     twice-modified shards served from a helping deposit. *)
  Alcotest.(check bool) "direct regime exercised" true (!direct > 0);
  Alcotest.(check bool) "borrowed regime exercised" true (!borrowed > 0);
  Alcotest.(check bool) "retry (modified-once) regime exercised" true (!retries > 0)

let test_starved_writers_all_direct () =
  (* The unbounded-delay adversary on every writer: scanners must
     still complete (wait-freedom), and with no writes moving, every
     snapshot is certified on its first probe pass. *)
  let entry = List.hd (Registry.fabric_capable Registry.all) in
  let run = Option.get entry.Registry.run_fabric_sim in
  let cfg = { base_cfg with Config.fab_steps = 5_000 } in
  let strategy =
    Strategy.starve
      ~victims:[ 0; 1 ] (* writer fibers come first *)
      ~until_step:1_000_000
      ~base:(Strategy.random ~seed:7)
  in
  let r = run ~strategy cfg in
  Alcotest.(check int) "no writes" 0 r.Fabric_runner.fr_writes;
  Alcotest.(check bool) "snapshots complete" true (r.Fabric_runner.fr_snapshots > 0);
  Alcotest.(check int) "no retries" 0 r.Fabric_runner.fr_retries;
  Alcotest.(check int) "no borrows" 0 r.Fabric_runner.fr_borrowed;
  match Fabric_runner.check r with
  | Ok _ -> ()
  | Error v -> Alcotest.failf "starved run: %a" Checker.pp_fabric_violation v

(* {2 Negative control: the collect-only fabric must be convicted} *)

let test_torn_control_convicted () =
  let entry = List.hd (Registry.fabric_capable Registry.all) in
  let run = Option.get entry.Registry.run_fabric_sim in
  let cfg = { base_cfg with Config.fab_atomic = false } in
  let convicted = ref 0 and runs = ref 0 in
  for seed = 1 to 8 do
    let r = run ~strategy:(Strategy.random ~seed) { cfg with Config.fab_seed = seed } in
    incr runs;
    (* Shard values still arrive through atomic register reads, so
       within-shard validation cannot fail even here. *)
    Alcotest.(check int) "no within-shard tearing" 0 r.Fabric_runner.fr_torn;
    match Fabric_runner.check r with
    | Ok _ -> ()
    | Error (Checker.Torn_snapshot _) -> incr convicted
    | Error ((Checker.Shard_violation _ | Checker.Cross_reign _) as v) ->
      Alcotest.failf "collect-only fabric produced a per-shard violation: %a"
        Checker.pp_fabric_violation v
  done;
  if !convicted = 0 then
    Alcotest.failf "collect-only negative control never convicted in %d runs" !runs

(* {2 Handcrafted histories for the cross-shard checker} *)

let w ~thread ~seq ~invoked ~returned =
  History.event History.Write ~thread ~seq ~invoked ~returned

let test_checker_handcrafted () =
  (* Shard 0: v1 over [10,20], v2 over [30,40]; shard 1: v1 over
     [50,60].  A snapshot over [25,70] observing (v2, v1) is fine —
     both values coexist from 50 (shard 1's v1 born) while shard 0's
     v2 is still current.  Observing (v1, v1) over the same interval
     is {e per-shard} regular for both shards (v1 of shard 0 is the
     last completed write at invocation; v1 of shard 1 is concurrent)
     yet torn: shard 0's v1 died at 40 (v2's return), before shard
     1's v1 was born at 50 — exactly the tear only the window
     intersection can see. *)
  let writes =
    [|
      History.of_events
        [
          w ~thread:0 ~seq:1 ~invoked:10 ~returned:20;
          w ~thread:0 ~seq:2 ~invoked:30 ~returned:40;
        ];
      History.of_events [ w ~thread:1 ~seq:1 ~invoked:50 ~returned:60 ];
    |]
  in
  let ok_snap =
    { Checker.sthread = 2; invoked = 25; returned = 70; observed = [| 2; 1 |]; sepoch = 0 }
  in
  (match Checker.check_fabric ~writes ~snapshots:[ ok_snap ] () with
  | Ok r ->
    Alcotest.(check int) "shards" 2 r.Checker.fshards;
    Alcotest.(check int) "snapshots" 1 r.Checker.snapshots_checked
  | Error v ->
    Alcotest.failf "coexisting vector rejected: %a" Checker.pp_fabric_violation v);
  let torn_snap =
    { Checker.sthread = 2; invoked = 25; returned = 70; observed = [| 1; 1 |]; sepoch = 0 }
  in
  match Checker.check_fabric ~writes ~snapshots:[ torn_snap ] () with
  | Ok _ -> Alcotest.fail "torn vector accepted"
  | Error (Checker.Torn_snapshot { fresh_shard; stale_shard; earliest; latest; _ })
    ->
    Alcotest.(check int) "stale shard" 0 stale_shard;
    Alcotest.(check int) "fresh shard" 1 fresh_shard;
    Alcotest.(check bool) "empty window" true (earliest > latest)
  | Error v ->
    Alcotest.failf "wrong conviction: %a" Checker.pp_fabric_violation v

(* {2 Reign-certified snapshots (ISSUE 9)} *)

let test_certified_epochs () =
  let fab = mk () in
  let sc = F.scanner fab 0 in
  (* A fresh fabric owns its configuration epoch, at 1: it certifies
     with nothing attached. *)
  Alcotest.(check int) "a fresh fabric certifies under its own epoch 1" 1
    (F.snap_epoch (certified sc));
  Alcotest.(check int) "the uncertified control carries epoch 0" 0
    (F.snap_epoch (F.snapshot_unvalidated sc));
  (* Epoch 0 is the deposits' "never borrow" mark: a shared word that
     reads 0 must be refused, leaving the fabric's own word in place. *)
  (match F.attach_reign fab ~config:(Arc_mem.Real_mem.atomic_contended 0) with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "attaching an epoch-0 word must refuse");
  Alcotest.(check int) "a refused attach keeps the fabric's own epoch" 1
    (F.snap_epoch (certified sc));
  let config = Arc_mem.Real_mem.atomic_contended 1 in
  F.attach_reign fab ~config;
  let w0 = F.writer fab 0 in
  let src = Array.make 8 11 in
  F.write w0 ~shard:0 ~src ~len:8;
  (match F.snapshot_certified sc with
  | Ok snap ->
      Alcotest.(check int) "certified under the opening epoch" 1
        (F.snap_epoch snap);
      Alcotest.(check int) "contents are the fabric's" 11 (F.shard_word snap 0 0)
  | Error _ -> Alcotest.fail "no election is running — certification must hold");
  (* A completed handoff moves the epoch; the next certification opens
     under the new reign. *)
  Arc_mem.Real_mem.store config 7;
  match F.snapshot_certified sc with
  | Ok snap ->
      Alcotest.(check int) "re-certified under the moved epoch" 7
        (F.snap_epoch snap)
  | Error _ -> Alcotest.fail "a quiescent epoch must certify"

(* {2 Accessor bounds and the allocation-free steady state} *)

let test_shard_word_bounds () =
  let fab = mk () in
  F.write (F.writer fab 0) ~shard:0 ~src:(Array.make 8 5) ~len:6;
  let snap = certified (F.scanner fab 0) in
  let invalid what f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: expected Invalid_argument" what
  in
  Alcotest.(check int) "last word" 5 (F.shard_word snap 0 5);
  (* Words 6 and 7 exist in the scratch but not in the value. *)
  invalid "word = len" (fun () -> F.shard_word snap 0 6);
  invalid "word past len" (fun () -> F.shard_word snap 0 7);
  invalid "negative word" (fun () -> F.shard_word snap 0 (-1));
  invalid "shard = shards" (fun () -> F.shard_len snap 4);
  invalid "negative shard" (fun () -> F.shard_stamp snap (-1))

let fab64 () =
  F.create ~shards:64 ~writers:1 ~readers:1 ~capacity:64 ~init:(Array.make 64 0)

let test_snapshot_alloc () =
  let fab = fab64 () in
  let w = F.writer fab 0 in
  let src = Array.make 64 3 in
  for s = 0 to 63 do
    F.write w ~shard:s ~src ~len:64
  done;
  let sc = F.scanner fab 0 in
  let dst = Array.make 64 0 in
  let snapshot () =
    match F.snapshot_certified sc with
    | Ok snap ->
        for s = 0 to 63 do
          ignore (F.shard_copy snap s ~dst)
        done
    | Error _ -> Alcotest.fail "quiesced fabric must certify"
  in
  let n = 1_000 in
  for _ = 1 to n do
    snapshot ()
  done;
  let before = Gc.minor_words () in
  for _ = 1 to n do
    snapshot ()
  done;
  let words = (Gc.minor_words () -. before) /. float_of_int n in
  if words > 2. then
    Alcotest.failf "snapshot_certified + 64 shard_copy allocates %.1f words per call"
      words

let test_deposit_alloc () =
  let fab = fab64 () in
  let w = F.writer fab 0 in
  let stop = Atomic.make false in
  let scanner =
    Domain.spawn (fun () ->
        let sc = F.scanner fab 0 in
        while not (Atomic.get stop) do
          ignore (F.snapshot_certified sc)
        done)
  in
  let src = Array.make 64 0 in
  let k = ref 0 in
  let write () =
    incr k;
    src.(0) <- !k;
    F.write w ~shard:(!k land 63) ~src ~len:64
  in
  (* Writes until [n] deposits were made (or the time budget ends);
     returns the deposits and this domain's minor words. *)
  let until_deposits n ~seconds =
    let d0 = F.deposits_made fab and m0 = Gc.minor_words () in
    let t_end = Unix.gettimeofday () +. seconds in
    while F.deposits_made fab - d0 < n && Unix.gettimeofday () < t_end do
      for _ = 1 to 64 do
        write ()
      done
    done;
    (F.deposits_made fab - d0, Gc.minor_words () -. m0)
  in
  let result =
    match
      ignore (until_deposits 50 ~seconds:2.);
      until_deposits 1_000 ~seconds:5.
    with
    | r -> Ok r
    | exception e -> Error e
  in
  Atomic.set stop true;
  Domain.join scanner;
  match result with
  | Error e -> raise e
  | Ok (deposits, words) ->
      if deposits < 50 then
        Alcotest.failf "only %d helping deposits while a scanner looped" deposits;
      let per = words /. float_of_int deposits in
      if per > 4. then
        Alcotest.failf "a helping write allocates %.1f words per deposit (%d deposits)"
          per deposits

(* {2 The elastic deposit channel} *)

let footprint_gauge fab =
  match
    List.find_opt
      (fun (m : Arc_obs.Obs.metric) -> m.mname = "fabric_deposit_footprint_words")
      (F.metrics fab)
  with
  | Some m -> int_of_float m.value
  | None -> Alcotest.fail "fabric_deposit_footprint_words is not exported"

(* Words in one 64×64 deposit, and the slots of its register (one
   reader, one writer: N = 2). *)
let dep_len64 = 1 + (64 * (2 + 64))
let dep_slots64 = 1 + 1 + 2

(* A fresh fabric's channel holds its one-word initial value per
   writer and nothing sized by capacity: the fabric's words beyond its
   shard registers are the same at C = 64 and C = 1024, where a
   fixed-storage channel would differ by (N+2)·64·960 words.  At 64×64
   the channel register the fabric builds holds at least 16,899 fewer
   words than the fixed-storage register it replaces, (N+2)·dep_len =
   16,900 of them slot buffers. *)
let test_fresh_channel_footprint () =
  let words v = Obj.reachable_words (Obj.repr v) in
  let beyond_shards capacity =
    let regs =
      Array.init 64 (fun _ ->
          Arc_real.create ~readers:2 ~capacity ~init:(Array.make capacity 0))
    in
    let fab = F.of_registers regs ~writers:1 ~readers:1 ~capacity in
    Alcotest.(check int)
      (Printf.sprintf "C = %d: deposit footprint" capacity)
      1 (F.deposit_footprint_words fab);
    Alcotest.(check int)
      (Printf.sprintf "C = %d: exported gauge" capacity)
      1 (footprint_gauge fab);
    words fab - words regs
  in
  Alcotest.(check int) "fabric words beyond its shards, C = 1024 vs 64"
    (beyond_shards 64) (beyond_shards 1024);
  let module Elastic = Arc_core.Arc_dynamic.Make (Arc_mem.Real_mem) in
  let channel create = words (create ~readers:2 ~capacity:dep_len64 ~init:[| 0 |]) in
  let saved = channel Arc_real.create - channel Elastic.create in
  if saved < 16_899 then
    Alcotest.failf "elastic channel saves %d words at 64×64 (need >= 16,899)" saved

(* After helping, each writer's channel holds at most (N+2)·dep_len:
   grown, never beyond ARC's slot bound. *)
let test_channel_bounded_after_helping () =
  let fab = fab64 () in
  let w = F.writer fab 0 in
  let stop = Atomic.make false in
  let scanner =
    Domain.spawn (fun () ->
        let sc = F.scanner fab 0 in
        while not (Atomic.get stop) do
          ignore (F.snapshot_certified sc)
        done)
  in
  let src = Array.make 64 0 in
  let t_end = Unix.gettimeofday () +. 3. in
  let k = ref 0 in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      Domain.join scanner)
    (fun () ->
      while F.deposits_made fab < 200 && Unix.gettimeofday () < t_end do
        incr k;
        src.(0) <- !k;
        F.write w ~shard:(!k land 63) ~src ~len:64
      done);
  let fp = F.deposit_footprint_words fab in
  if F.deposits_made fab = 0 then Alcotest.fail "no helping deposit while a scanner looped";
  if fp < dep_len64 then
    Alcotest.failf "after %d deposits the channel holds %d words (< one deposit)"
      (F.deposits_made fab) fp;
  if fp > dep_slots64 * dep_len64 then
    Alcotest.failf "channel holds %d words, above (N+2)·dep_len = %d" fp
      (dep_slots64 * dep_len64);
  Alcotest.(check int) "gauge agrees" fp (footprint_gauge fab)

(* Certification under real interleavings, deterministically: the same
   fabric on the simulated substrate, driven by seeded vsched
   schedules.  A bumper fiber plays the role of completing handoffs. *)
module Rs = Arc_core.Arc.Make (Arc_vsched.Sim_mem)
module Fs = Arc_fabric.Fabric.Make (Rs)
module Ps = Arc_workload.Payload.Make (Arc_vsched.Sim_mem)
module Sched = Arc_vsched.Sched

let certified_s sc =
  match Fs.snapshot_certified sc with
  | Ok snap -> snap
  | Error _ -> Alcotest.fail "no election is running — certification must hold"

let certified_sim ?strategy ~seed ~bumping ~max_retries ~steps () =
  let shards = 4 and size = 16 and writers = 2 and scanners = 2 in
  let init = Array.make size 0 in
  Ps.stamp init ~seq:0 ~len:size;
  let fab = Fs.create ~shards ~writers ~readers:scanners ~capacity:size ~init in
  let config = Arc_vsched.Sim_mem.atomic_contended 1 in
  Fs.attach_reign ?max_retries fab ~config;
  let oks = ref [] and errs = ref [] in
  let writer wid () =
    let w = Fs.writer fab wid in
    let src = Array.make size 0 in
    let seqs = Array.make shards 0 in
    while Sched.now () < steps do
      for s = 0 to shards - 1 do
        if s mod writers = wid then begin
          seqs.(s) <- seqs.(s) + 1;
          Ps.stamp src ~seq:seqs.(s) ~len:size;
          Fs.write w ~shard:s ~src ~len:size
        end
      done;
      Sched.cede ()
    done
  in
  let scanner sid () =
    let sc = Fs.scanner fab sid in
    while Sched.now () < steps do
      (match Fs.snapshot_certified sc with
      | Ok snap -> oks := Fs.snap_epoch snap :: !oks
      | Error rc -> errs := rc :: !errs);
      Sched.cede ()
    done
  in
  (* [bumping] plays the elected successors: a handoff completing every
     few scheduler quanta for the whole run. *)
  let bumper () =
    while bumping && Sched.now () < steps do
      ignore (Arc_vsched.Sim_mem.fetch_and_add config 1);
      Sched.cede ()
    done
  in
  let strategy =
    match strategy with Some s -> s | None -> Strategy.random ~seed
  in
  ignore
    (Sched.run ~strategy
       [| writer 0; writer 1; scanner 0; scanner 1; bumper |]);
  (List.rev !oks, List.rev !errs, Fs.snapshots_borrowed fab)

(* A writer whose helping scan fails certification deposits the
   one-word never-borrow marker.  Under elastic storage the marker
   shrinks the slot it lands in from a full deposit to one word (the
   footprint drops by dep_len - 1), a later full deposit regrows that
   slot (it rises by the same), the channel never exceeds
   (N+2)·dep_len, and no scanner ever adopts the marker: every
   borrowed snapshot carries an epoch >= 1.  Handoffs land mid-scan
   and the retry budget is 0, so helping scans fail often.  The
   initial value's one-word slot can account for one regrowth per
   run, so each run's first is not counted. *)
let test_marker_shrinks_slot () =
  let shards = 4 and size = 16 in
  let dep_len = 1 + (shards * (2 + size)) and slots = 1 + 1 + 2 in
  let shrinks = ref 0 and regrows = ref 0 and borrowed = ref 0 in
  for seed = 1 to 20 do
    let steps = 100_000 in
    let init = Array.make size 0 in
    Ps.stamp init ~seq:0 ~len:size;
    let fab = Fs.create ~shards ~writers:1 ~readers:1 ~capacity:size ~init in
    let config = Arc_vsched.Sim_mem.atomic_contended 1 in
    Fs.attach_reign ~max_retries:0 fab ~config;
    let regrown = ref 0 in
    let writer () =
      let w = Fs.writer fab 0 in
      let src = Array.make size 0 in
      let k = ref 0 and shrunk = ref false in
      while Sched.now () < steps do
        incr k;
        Ps.stamp src ~seq:!k ~len:size;
        let before = Fs.deposit_footprint_words fab in
        (* Every other write hits shard 0, so scans see it move twice. *)
        Fs.write w ~shard:(if !k land 1 = 0 then 0 else !k mod shards) ~src ~len:size;
        let after = Fs.deposit_footprint_words fab in
        if after > slots * dep_len then
          Alcotest.failf "seed %d: channel holds %d words, above (N+2)·dep_len = %d"
            seed after (slots * dep_len);
        if after - before = -(dep_len - 1) then begin
          incr shrinks;
          shrunk := true
        end
        else if !shrunk && after - before = dep_len - 1 then incr regrown;
        Sched.cede ()
      done
    in
    let scanner () =
      let sc = Fs.scanner fab 0 in
      while Sched.now () < steps do
        (match Fs.snapshot_certified sc with
        | Ok snap when Fs.borrowed snap ->
            incr borrowed;
            if Fs.snap_epoch snap < 1 then
              Alcotest.failf "seed %d: a scanner adopted the never-borrow marker" seed
        | Ok _ | Error _ -> ());
        Sched.cede ()
      done
    in
    (* Handoffs in spells, so scans between them still certify and
       borrow. *)
    let bumper () =
      while Sched.now () < steps do
        ignore (Arc_vsched.Sim_mem.fetch_and_add config 1);
        for _ = 1 to 1 + (Sched.now () mod 40) do
          Sched.cede ()
        done
      done
    in
    ignore
      (Sched.run
         ~strategy:(Strategy.random_burst ~seed ~max_burst:60)
         [| writer; scanner; bumper |]);
    regrows := !regrows + max 0 (!regrown - 1)
  done;
  Alcotest.(check bool) "a marker shrank a full slot" true (!shrinks > 0);
  Alcotest.(check bool) "a full deposit regrew a shrunk slot" true (!regrows > 0);
  Alcotest.(check bool) "borrowed snapshots were judged" true (!borrowed > 0)

(* A borrowed snapshot pins its deposit slot: it must stay
   word-identical while its lender deposits readers + writers + 2 more
   times — enough to cycle every other slot of the deposit register —
   until the holder's next snapshot.  One writer, so it is the lender;
   a second scanner keeps scans announced so the writer keeps
   depositing while the holder waits. *)
let test_borrowed_view_stable () =
  let shards = 4 and size = 8 and writers = 1 and scanners = 2 in
  let cycle = scanners + writers + 2 in
  let held = ref 0 and changed = ref 0 in
  let image snap =
    ( Fs.snap_epoch snap,
      Array.init shards (fun s ->
          let dst = Array.make size 0 in
          let len = Fs.shard_copy snap s ~dst in
          (Fs.shard_stamp snap s, Array.sub dst 0 len)) )
  in
  for seed = 1 to 8 do
    let steps = 20_000 in
    let init = Array.make size 0 in
    Ps.stamp init ~seq:0 ~len:size;
    let fab = Fs.create ~shards ~writers ~readers:scanners ~capacity:size ~init in
    let writer () =
      let w = Fs.writer fab 0 in
      let src = Array.make size 0 in
      let k = ref 0 in
      while Sched.now () < steps do
        incr k;
        (* Every other write hits shard 0, so scans see it move twice. *)
        let s = if !k land 1 = 0 then 0 else !k mod shards in
        Ps.stamp src ~seq:!k ~len:size;
        Fs.write w ~shard:s ~src ~len:size;
        Sched.cede ()
      done
    in
    let holder () =
      let sc = Fs.scanner fab 0 in
      while Sched.now () < steps do
        let snap = certified_s sc in
        if Fs.borrowed snap then begin
          let before = image snap in
          let len = Fs.shard_len snap 0 in
          (match Fs.shard_word snap 0 len with
          | exception Invalid_argument _ -> ()
          | _ -> Alcotest.fail "borrowed shard_word past the length must raise");
          let d0 = Fs.deposits_made fab in
          while Fs.deposits_made fab - d0 < cycle && Sched.now () < steps do
            Sched.cede ()
          done;
          if Fs.deposits_made fab - d0 >= cycle then begin
            incr held;
            if image snap <> before then incr changed
          end
        end;
        Sched.cede ()
      done
    in
    let churner () =
      let sc = Fs.scanner fab 1 in
      while Sched.now () < steps do
        ignore (certified_s sc);
        Sched.cede ()
      done
    in
    ignore
      (Sched.run
         ~strategy:(Strategy.random_burst ~seed ~max_burst:60)
         [| writer; holder; churner |])
  done;
  Alcotest.(check bool) "a borrowed view was held across a deposit cycle" true
    (!held > 0);
  Alcotest.(check int) "held borrowed views that changed" 0 !changed

let test_certified_sim_static_config () =
  (* No handoffs: every snapshot must certify under epoch 1 — including
     the ones served from a writer's helping deposit, which is exactly
     the epoch-matched borrowing claim (a deposit is only borrowed when
     it was taken under the scan's opening epoch). *)
  let borrowed = ref 0 in
  for seed = 1 to 6 do
    List.iter
      (fun (strategy_name, strategy) ->
        let oks, errs, b =
          certified_sim ~strategy ~seed ~bumping:false ~max_retries:None
            ~steps:20_000 ()
        in
        Alcotest.(check int)
          (Printf.sprintf "%s(seed=%d): no typed verdicts with a quiescent epoch"
             strategy_name seed)
          0 (List.length errs);
        Alcotest.(check bool)
          (Printf.sprintf "%s(seed=%d): snapshots completed" strategy_name seed)
          true (oks <> []);
        List.iter
          (fun e ->
            if e <> 1 then
              Alcotest.failf "%s(seed=%d): snapshot certified under epoch %d, not 1"
                strategy_name seed e)
          oks;
        borrowed := !borrowed + b)
      [
        ("random", Strategy.random ~seed);
        ("burst", Strategy.random_burst ~seed ~max_burst:60);
        ( "steal",
          Strategy.steal ~seed
            ~base:(Strategy.random ~seed:(seed + 1))
            ~probability:0.01 ~min_pause:50 ~max_pause:400 );
      ]
  done;
  Alcotest.(check bool) "borrowed regime exercised under certification" true
    (!borrowed > 0)

let test_certified_sim_reign_changed () =
  (* With handoffs completing mid-scan and a zero retry budget, the
     typed verdict must actually be reachable.  A verdict names either
     a genuinely moved epoch ([r_now > r_opened]) or a starved final
     round ([r_now = r_opened]: the dirty-pass cap hit while
     epoch-matched borrowing rejected every deposit); the epoch word is
     monotone, so [r_now < r_opened] is always a bug. *)
  let changed = ref 0 and moved = ref 0 in
  for seed = 1 to 20 do
    let oks, errs, _ =
      certified_sim ~seed ~bumping:true ~max_retries:(Some 0) ~steps:6_000 ()
    in
    List.iter
      (fun (rc : Arc_fabric.Fabric.reign_change) ->
        incr changed;
        if rc.r_now > rc.r_opened then incr moved;
        if rc.r_now < rc.r_opened then
          Alcotest.failf
            "seed %d: verdict names epochs %d -> %d (epoch moved backwards)"
            seed rc.r_opened rc.r_now)
      errs;
    (* A certified epoch is the opening load's value: ≥ the initial 1,
       and — since the certifying re-load matched — the snapshot's
       whole collect ran inside that reign. *)
    List.iter
      (fun e ->
        if e < 1 then
          Alcotest.failf "seed %d: certified epoch %d below initial" seed e)
      oks
  done;
  Alcotest.(check bool) "Reign_changed reachable across the seed sweep" true
    (!changed > 0);
  Alcotest.(check bool) "moved-epoch verdicts witnessed" true (!moved > 0)

let test_certified_snapshots_linearizable_under_churn () =
  (* Regression: a writer whose certified helping scan hits
     Reign_changed must still write its deposit register before
     publishing — the one-word epoch-0 marker, which no scanner adopts.
     If it published without depositing, a scanner counting its shard
     modified-twice could adopt the writer's older deposit whenever
     that deposit's epoch matches the scan's own: a vector frozen
     {e before} the scan's window, which the checker's per-shard
     projection convicts.  Zero retry budget plus a bumper fiber keeps
     elections churning so helping certification fails often; the
     bumper's seeded quiet spells let deposits certify between
     handoffs, which is what gives a stale deposit a matching epoch.
     (Dropping the marker deposit is convicted on several seeds of
     this sweep under the burst strategy.) *)
  (* One shard per writer: consecutive writes land on the same shard,
     so scans observe modified-twice (and borrow) often. *)
  let shards = 2 and size = 8 and writers = 2 and scanners = 2 in
  let steps = 100_000 in
  let borrowed = ref 0 and certified = ref 0 and verdicts = ref 0 in
  let churn_one ~name ~strategy ~seed =
    let init = Array.make size 0 in
    Ps.stamp init ~seq:0 ~len:size;
    let fab = Fs.create ~shards ~writers ~readers:scanners ~capacity:size ~init in
    let config = Arc_vsched.Sim_mem.atomic_contended 1 in
    Fs.attach_reign ~max_retries:0 fab ~config;
    let events = Array.init shards (fun _ -> ref []) in
    let obs = ref [] in
    let writer wid () =
      let w = Fs.writer fab wid in
      let src = Array.make size 0 in
      let seqs = Array.make shards 0 in
      while Sched.now () < steps do
        for s = 0 to shards - 1 do
          if s mod writers = wid then begin
            seqs.(s) <- seqs.(s) + 1;
            Ps.stamp src ~seq:seqs.(s) ~len:size;
            let invoked = Sched.now () in
            Fs.write w ~shard:s ~src ~len:size;
            let returned = Sched.now () in
            events.(s) :=
              History.event History.Write ~thread:wid ~seq:seqs.(s) ~invoked
                ~returned
              :: !(events.(s))
          end
        done;
        Sched.cede ()
      done
    in
    let scanner sid () =
      let sc = Fs.scanner fab sid in
      let scratch = Array.make size 0 in
      while Sched.now () < steps do
        let invoked = Sched.now () in
        (match Fs.snapshot_certified sc with
        | Error (_ : Arc_fabric.Fabric.reign_change) -> incr verdicts
        | Ok snap ->
            let returned = Sched.now () in
            let observed =
              Array.init shards (fun s ->
                  let len = Fs.shard_copy snap s ~dst:scratch in
                  match Ps.validate_words scratch ~len with
                  | Ok seq -> seq
                  | Error e -> Alcotest.failf "seed %d: torn shard %d: %s" seed s e)
            in
            incr certified;
            obs :=
              {
                Checker.sthread = writers + sid;
                invoked;
                returned;
                observed;
                sepoch = Fs.snap_epoch snap;
              }
              :: !obs);
        Sched.cede ()
      done
    in
    (* A handoff, then a seeded quiet spell of up to 200 quanta. *)
    let bumper () =
      let g = Arc_util.Splitmix.of_int seed in
      while Sched.now () < steps do
        ignore (Arc_vsched.Sim_mem.fetch_and_add config 1);
        for _ = 1 to Arc_util.Splitmix.int g 200 do
          Sched.cede ()
        done
      done
    in
    ignore
      (Sched.run ~strategy
         [| writer 0; writer 1; scanner 0; scanner 1; bumper |]);
    let writes = Array.map (fun l -> History.of_events !l) events in
    (match Checker.check_fabric ~writes ~snapshots:(List.rev !obs) () with
    | Ok _ -> ()
    | Error v ->
        Alcotest.failf "%s(seed=%d): certified snapshot under reign churn: %a"
          name seed Checker.pp_fabric_violation v);
    borrowed := !borrowed + Fs.snapshots_borrowed fab
  in
  for seed = 1 to 40 do
    churn_one ~name:"random" ~strategy:(Strategy.random ~seed) ~seed;
    churn_one ~name:"burst"
      ~strategy:(Strategy.random_burst ~seed ~max_burst:20)
      ~seed
  done;
  Alcotest.(check bool) "borrowed regime exercised under churn" true
    (!borrowed > 0);
  Alcotest.(check bool) "certified snapshots judged under churn" true
    (!certified > 0);
  Alcotest.(check bool) "typed verdicts reached under churn" true (!verdicts > 0)

let test_checker_cross_reign () =
  (* Shard 1's seq 2 was published by reign 3.  A snapshot observing it
     certified under epoch 2 is per-shard regular AND window-consistent
     — only the reign pass can convict it; the same vector certified
     under epoch 3 must be accepted, and a plain (epoch-0) snapshot
     skips the pass entirely. *)
  let writes =
    [|
      History.of_events [ w ~thread:0 ~seq:1 ~invoked:10 ~returned:20 ];
      History.of_events
        [
          w ~thread:1 ~seq:1 ~invoked:10 ~returned:20;
          w ~thread:1 ~seq:2 ~invoked:30 ~returned:40;
        ];
    |]
  in
  let reigns =
    [
      { Checker.rshard = 0; first_seq = 1; config = 2 };
      { Checker.rshard = 1; first_seq = 1; config = 2 };
      { Checker.rshard = 1; first_seq = 2; config = 3 };
    ]
  in
  let snap sepoch =
    { Checker.sthread = 9; invoked = 35; returned = 50; observed = [| 1; 2 |]; sepoch }
  in
  (match Checker.check_fabric ~reigns ~writes ~snapshots:[ snap 2 ] () with
  | Error (Checker.Cross_reign { shard; config; _ }) ->
      Alcotest.(check int) "convicted shard" 1 shard;
      Alcotest.(check int) "the value's reign" 3 config
  | Error v -> Alcotest.failf "wrong conviction: %a" Checker.pp_fabric_violation v
  | Ok _ -> Alcotest.fail "cross-reign splice accepted");
  (match Checker.check_fabric ~reigns ~writes ~snapshots:[ snap 3 ] () with
  | Ok _ -> ()
  | Error v ->
      Alcotest.failf "epoch-3 certification wrongly convicted: %a"
        Checker.pp_fabric_violation v);
  (match Checker.check_fabric ~reigns ~writes ~snapshots:[ snap 0 ] () with
  | Ok _ -> ()
  | Error v ->
      Alcotest.failf "uncertified snapshot must skip the reign pass: %a"
        Checker.pp_fabric_violation v);
  (* Unclaimed values default to reign 0 and can never convict — the
     dimension is opt-in per shard value, not a new obligation on every
     existing harness. *)
  match Checker.check_fabric ~writes ~snapshots:[ snap 2 ] () with
  | Ok _ -> ()
  | Error v ->
      Alcotest.failf "unclaimed values wrongly convicted: %a"
        Checker.pp_fabric_violation v

let test_checker_shard_projection () =
  (* A snapshot observing a seq that was never written on that shard
     must fall out of the per-shard projection as a violation. *)
  let writes =
    [| History.of_events [ w ~thread:0 ~seq:1 ~invoked:10 ~returned:20 ] |]
  in
  let ghost =
    { Checker.sthread = 1; invoked = 30; returned = 40; observed = [| 5 |]; sepoch = 0 }
  in
  match Checker.check_fabric ~writes ~snapshots:[ ghost ] () with
  | Ok _ -> Alcotest.fail "ghost value accepted"
  | Error (Checker.Shard_violation { shard; _ }) ->
    Alcotest.(check int) "shard" 0 shard
  | Error v -> Alcotest.failf "wrong conviction: %a" Checker.pp_fabric_violation v

let suite =
  [
    Alcotest.test_case "create validation" `Quick test_create_validation;
    Alcotest.test_case "shard ownership" `Quick test_ownership;
    Alcotest.test_case "snapshot contents" `Quick test_snapshot_contents;
    Alcotest.test_case "unvalidated single-threaded" `Quick
      test_unvalidated_single_threaded;
    Alcotest.test_case "capability discovery" `Quick test_discovery;
    Alcotest.test_case "adversarial campaign" `Slow test_atomic_campaign;
    Alcotest.test_case "starved writers stay wait-free" `Quick
      test_starved_writers_all_direct;
    Alcotest.test_case "torn negative control convicted" `Slow
      test_torn_control_convicted;
    Alcotest.test_case "checker: handcrafted windows" `Quick
      test_checker_handcrafted;
    Alcotest.test_case "checker: shard projection" `Quick
      test_checker_shard_projection;
    Alcotest.test_case "certified epochs (heap)" `Quick test_certified_epochs;
    Alcotest.test_case "shard_word bounds" `Quick test_shard_word_bounds;
    Alcotest.test_case "snapshot allocates nothing" `Quick test_snapshot_alloc;
    Alcotest.test_case "helping deposit allocates nothing" `Quick
      test_deposit_alloc;
    Alcotest.test_case "fresh deposit channel holds one word" `Quick
      test_fresh_channel_footprint;
    Alcotest.test_case "deposit channel bounded after helping" `Quick
      test_channel_bounded_after_helping;
    Alcotest.test_case "borrowed view stable across deposits (vsched)" `Slow
      test_borrowed_view_stable;
    Alcotest.test_case "marker deposit shrinks its slot (vsched)" `Slow
      test_marker_shrinks_slot;
    Alcotest.test_case "certified under static config (vsched)" `Slow
      test_certified_sim_static_config;
    Alcotest.test_case "Reign_changed reachable (vsched)" `Slow
      test_certified_sim_reign_changed;
    Alcotest.test_case "certified snapshots linearizable under churn (vsched)"
      `Slow test_certified_snapshots_linearizable_under_churn;
    Alcotest.test_case "checker: cross-reign conviction" `Quick
      test_checker_cross_reign;
  ]
