(* Fabric snapshot campaign under the virtual scheduler (ISSUE 6).

   Writer fibers round-robin over their owned shards, stamping each
   shard's payload with a per-shard sequence number; scanner fibers
   take certified cross-shard snapshots, validate every shard
   word-by-word, and record one {!Arc_trace.Checker.snapshot_obs} per
   snapshot.  The simulation runs no elections, so the fabric's own
   configuration epoch stays at 1 and certification never fails.  The
   run's per-shard write histories plus the recorded snapshots feed
   {!Arc_trace.Checker.check_fabric} ([check]).

   Recording uses plain per-shard list refs rather than
   {!Arc_trace.History.Recorder}: the scheduler is cooperative
   (exactly one fiber runs at a time), so there is no contention to
   engineer around and no drop budget to size.

   Word-level validation and cross-shard checking test different
   claims: each shard value arrives through the underlying register's
   atomic read, so [fr_torn] (payload corruption within one shard)
   must be zero even for the collect-only negative control — the
   negative control's defect is that its {e vector} never coexisted,
   which only the checker's window intersection can convict. *)

module History = Arc_trace.History
module Checker = Arc_trace.Checker
module Sched = Arc_vsched.Sched
module Strategy = Arc_vsched.Strategy
module Fibers = Arc_fault.Fibers

type result = {
  fr_snapshots : int;  (* snapshots completed (direct + borrowed) *)
  fr_borrowed : int;  (* served from a writer's helping deposit *)
  fr_retries : int;  (* failed probe passes across all snapshots *)
  fr_deposits : int;  (* helping snapshots deposited by writers *)
  fr_writes : int;  (* shard writes published *)
  fr_torn : int;  (* snapshots dropped for a torn shard (expect 0) *)
  fr_steps : int;  (* simulated steps consumed *)
  fr_shard_writes : History.t array;  (* per shard, seqs 1..k *)
  fr_snapshot_obs : Checker.snapshot_obs list;
}

let check (r : result) =
  Checker.check_fabric ~writes:r.fr_shard_writes ~snapshots:r.fr_snapshot_obs ()

module Make (R : Arc_core.Register_intf.STAMPED) = struct
  module P = Arc_workload.Payload.Make (R.Mem)
  module F = Arc_fabric.Fabric.Make (R)

  (* Writer [wid] is fiber [wid]; its targets are its owned shards
     (shard ownership is static, so every shard keeps one writer),
     each write logged into its shard's history. *)
  let writer ~fx ~fw ~wid ~(cfg : Config.fabric_sim) ~events =
    let owned =
      Array.of_list
        (List.filter
           (fun s -> s mod cfg.fab_writers = wid)
           (List.init cfg.fab_shards Fun.id))
    in
    let log k ~seq ~invoked ~returned =
      let s = owned.(k) in
      events.(s) := History.event History.Write ~thread:wid ~seq ~invoked ~returned :: !(events.(s))
    in
    Fibers.writer ~thread:wid ~log fx ~stop:(Until cfg.fab_steps)
      (Array.map
         (fun s src -> F.write fw ~shard:s ~src ~len:cfg.fab_size_words)
         owned)

  (* A snapshot with a torn shard is counted and dropped: the torn-view
     policy of every reader body ({!Arc_fault.Fibers}). *)
  let scanner ~fx ~ctx ~sid ~(cfg : Config.fabric_sim) ~obs =
    let thread = cfg.fab_writers + sid in
    let scratch = Array.make cfg.fab_size_words 0 in
    Fibers.guard fx ~thread @@ fun () ->
    Fibers.loop fx ~thread ~stop:(Until cfg.fab_steps) (fun () ->
        let invoked = Sched.now () in
        let snap =
          if not cfg.fab_atomic then F.snapshot_unvalidated ctx
          else
            match F.snapshot_certified ctx with
            | Ok snap -> snap
            | Error _ -> failwith "certified snapshot failed with no elections running"
        in
        let returned = Sched.now () in
        let observed = Array.make cfg.fab_shards 0 and torn = ref false in
        for s = 0 to cfg.fab_shards - 1 do
          let len = F.shard_copy snap s ~dst:scratch in
          match P.validate_words scratch ~len with
          | Ok seq -> observed.(s) <- seq
          | Error _ -> torn := true
        done;
        if !torn then fx.Fibers.torn <- fx.Fibers.torn + 1
        else
          (* Snapshot threads live above the writer range so projected
             reads never collide with writer thread ids. *)
          obs :=
            { Checker.sthread = thread; invoked; returned; observed; sepoch = F.snap_epoch snap }
            :: !obs;
        Fibers.count fx thread)

  let run ?strategy (cfg : Config.fabric_sim) : result =
    if cfg.fab_shards < 1 then invalid_arg "Fabric_runner.run: need shards";
    if cfg.fab_writers < 1 || cfg.fab_writers > cfg.fab_shards then
      invalid_arg "Fabric_runner.run: need 1 <= writers <= shards";
    if cfg.fab_scanners < 1 then invalid_arg "Fabric_runner.run: need a scanner";
    if cfg.fab_size_words < 1 then invalid_arg "Fabric_runner.run: empty shards";
    if cfg.fab_steps < 1 then invalid_arg "Fabric_runner.run: no step budget";
    let strategy =
      match strategy with
      | Some s -> s
      | None -> Strategy.random ~seed:cfg.fab_seed
    in
    let nfibers = cfg.fab_writers + cfg.fab_scanners in
    let fx =
      Fibers.create ~size:cfg.fab_size_words ~max_steps:cfg.fab_steps ~threads:nfibers ()
    in
    let fab =
      F.create ~shards:cfg.fab_shards ~writers:cfg.fab_writers
        ~readers:cfg.fab_scanners ~capacity:cfg.fab_size_words ~init:fx.init
    in
    let events = Array.init cfg.fab_shards (fun _ -> ref []) in
    let obs = ref [] in
    let outcome =
      Fibers.run fx ~strategy
        (Array.init nfibers (fun i ->
             if i < cfg.fab_writers then
               writer ~fx ~fw:(F.writer fab i) ~wid:i ~cfg ~events
             else
               scanner ~fx
                 ~ctx:(F.scanner fab (i - cfg.fab_writers))
                 ~sid:(i - cfg.fab_writers) ~cfg ~obs))
    in
    let writes = Array.fold_left ( + ) 0 (Array.sub fx.ops 0 cfg.fab_writers) in
    {
      fr_snapshots = Array.fold_left ( + ) 0 fx.ops - writes;
      fr_borrowed = F.snapshots_borrowed fab;
      fr_retries = F.snapshot_retries fab;
      fr_deposits = F.deposits_made fab;
      fr_writes = writes;
      fr_torn = fx.torn;
      fr_steps = outcome.Sched.steps;
      fr_shard_writes = Array.map (fun l -> History.of_events !l) events;
      fr_snapshot_obs = List.rev !obs;
    }
end
