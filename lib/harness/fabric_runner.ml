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

type result = {
  fr_snapshots : int;  (* snapshots completed (direct + borrowed) *)
  fr_borrowed : int;  (* served from a writer's helping deposit *)
  fr_retries : int;  (* failed probe passes across all snapshots *)
  fr_deposits : int;  (* helping snapshots deposited by writers *)
  fr_writes : int;  (* shard writes published *)
  fr_torn : int;  (* per-shard payload validation failures (expect 0) *)
  fr_steps : int;  (* simulated steps consumed *)
  fr_shard_writes : History.t array;  (* per shard, seqs 1..k *)
  fr_snapshot_obs : Checker.snapshot_obs list;
}

let check (r : result) =
  Checker.check_fabric ~writes:r.fr_shard_writes ~snapshots:r.fr_snapshot_obs ()

module Make (R : Arc_core.Register_intf.STAMPED) = struct
  module P = Arc_workload.Payload.Make (R.Mem)
  module F = Arc_fabric.Fabric.Make (R)

  type out = { mutable ops : int; mutable torn : int }

  (* Writer [wid] cycles through its owned shards, one write per
     iteration.  [seqs] is shared across fibers but each cell has
     exactly one writer (shard ownership is static), matching the
     single-writer regime everywhere else in the repo. *)
  let writer_fiber ~fw ~wid ~(cfg : Config.fabric_sim) ~seqs ~events ~out () =
    let size = cfg.fab_size_words in
    let src = Array.make size 0 in
    let owned =
      List.filter
        (fun s -> s mod cfg.fab_writers = wid)
        (List.init cfg.fab_shards Fun.id)
    in
    let cursor = ref owned in
    while Sched.now () < cfg.fab_steps do
      let s, rest =
        match !cursor with [] -> assert false | s :: rest -> (s, rest)
      in
      cursor := (if rest = [] then owned else rest);
      let seq = seqs.(s) + 1 in
      P.stamp src ~seq ~len:size;
      let invoked = Sched.now () in
      F.write fw ~shard:s ~src ~len:size;
      let returned = Sched.now () in
      seqs.(s) <- seq;
      events.(s) :=
        History.event History.Write ~thread:wid ~seq ~invoked ~returned
        :: !(events.(s));
      out.ops <- out.ops + 1;
      Sched.cede ()
    done

  let scanner_fiber ~ctx ~sid ~(cfg : Config.fabric_sim) ~obs ~out () =
    let scratch = Array.make cfg.fab_size_words 0 in
    while Sched.now () < cfg.fab_steps do
      let invoked = Sched.now () in
      let snap =
        if not cfg.fab_atomic then F.snapshot_unvalidated ctx
        else
          match F.snapshot_certified ctx with
          | Ok snap -> snap
          | Error _ -> failwith "certified snapshot failed with no elections running"
      in
      let returned = Sched.now () in
      let observed =
        Array.init cfg.fab_shards (fun s ->
            let len = F.shard_copy snap s ~dst:scratch in
            match P.validate_words scratch ~len with
            | Ok seq -> seq
            | Error _ ->
              out.torn <- out.torn + 1;
              P.decode_words scratch)
      in
      (* Snapshot threads live above the writer range so projected
         reads never collide with writer thread ids. *)
      obs :=
        {
          Checker.sthread = cfg.fab_writers + sid;
          invoked;
          returned;
          observed;
          sepoch = F.snap_epoch snap;
        }
        :: !obs;
      out.ops <- out.ops + 1;
      Sched.cede ()
    done

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
    let init = Array.make cfg.fab_size_words 0 in
    P.stamp init ~seq:0 ~len:cfg.fab_size_words;
    let fab =
      F.create ~shards:cfg.fab_shards ~writers:cfg.fab_writers
        ~readers:cfg.fab_scanners ~capacity:cfg.fab_size_words ~init
    in
    let seqs = Array.make cfg.fab_shards 0 in
    let events = Array.init cfg.fab_shards (fun _ -> ref []) in
    let obs = ref [] in
    let nfibers = cfg.fab_writers + cfg.fab_scanners in
    let outs = Array.init nfibers (fun _ -> { ops = 0; torn = 0 }) in
    let fibers =
      Array.init nfibers (fun i ->
          if i < cfg.fab_writers then
            writer_fiber ~fw:(F.writer fab i) ~wid:i ~cfg ~seqs ~events
              ~out:outs.(i)
          else
            scanner_fiber
              ~ctx:(F.scanner fab (i - cfg.fab_writers))
              ~sid:(i - cfg.fab_writers) ~cfg ~obs ~out:outs.(i))
    in
    (* Same backstop rationale as {!Sim_runner}: fibers self-terminate
       at loop tops, the hard cap only bounds a wait-freedom bug. *)
    let backstop = (cfg.fab_steps * 3) + 100_000 in
    let outcome = Sched.run ~max_steps:backstop ~strategy fibers in
    let writes = ref 0 and snapshots = ref 0 and torn = ref 0 in
    Array.iteri
      (fun i o ->
        if i < cfg.fab_writers then writes := !writes + o.ops
        else snapshots := !snapshots + o.ops;
        torn := !torn + o.torn)
      outs;
    {
      fr_snapshots = !snapshots;
      fr_borrowed = F.snapshots_borrowed fab;
      fr_retries = F.snapshot_retries fab;
      fr_deposits = F.deposits_made fab;
      fr_writes = !writes;
      fr_torn = !torn;
      fr_steps = outcome.Sched.steps;
      fr_shard_writes = Array.map (fun l -> History.of_events !l) events;
      fr_snapshot_obs = List.rev !obs;
    }
end
