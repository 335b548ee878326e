(* Chaos soak for the supervised register service (ISSUE 3).

   Composes the whole resilience stack — {!Fenced} epoch fencing,
   {!Supervisor} heartbeat failover, {!Session} deadline/backoff/
   breaker reads — over a fault-injecting simulated register
   ([Arc] over {!Arc_fault.Campaign.Mem}) and soaks it through many
   seeded randomized scenarios:

   - fiber 0 is the incumbent writer: it may crash at a random access,
     crash mid-copy (torn slot), or turn {e zombie} — pause between
     writes for several leases (a GC/OS pause), get deposed, and have
     its post-fence write rejected by [Fenced_out];
   - fiber 1 is the standby: it polls the supervisor, promotes itself
     once the lease expires, learns the last published value through a
     spare reader handle, and continues the write sequence (it can be
     stalled to model a supervisor outage);
   - fibers 2.. are deadline-aware reader sessions; the read path
     additionally suffers {e injected transient saturation} (a seeded
     probability of {!Register_intf.Saturated} per live read, standing
     in for the capacity/revocation guards that are — by design —
     nearly unreachable in healthy runs), which drives the retry,
     breaker and stale-serve machinery at scale.

   Every run is judged: no torn snapshots, crash-aware atomicity with
   the promotion time as the fence ({!Checker.check_crash} [?fence]),
   every degraded serve within the declared staleness bound
   ({!Checker.check_bounded_staleness}), liveness (no fiber left
   unfinished, no surviving reader starved) and the ARC presence-ledger
   audit on the quiescent final state.  A failing run prints nothing
   by itself but carries its seed; {!replay_command} renders the exact
   command line that reproduces it.

   Fault soundness.  Mid-write writer stalls are drawn strictly below
   half the lease, so a live writer is never deposed while it sits
   between the epoch-guard load and the publish exchange — the
   residual window of {!Fenced} — matching the lease discipline
   documented in DESIGN.md §6c.  Zombie pauses, which do exceed the
   lease, are taken {e between} writes, where the entry epoch check
   fences the returnee before it touches the register.  The
   {!unfenced_control} shows the same handoff without fencing is
   convicted by the checker — the negative control that proves the
   fence is load-bearing. *)

module Splitmix = Arc_util.Splitmix
module Outcomes = Arc_util.Stats.Outcomes
module Sched = Arc_vsched.Sched
module Strategy = Arc_vsched.Strategy
module History = Arc_trace.History
module Checker = Arc_trace.Checker
module Fault_plan = Arc_fault.Fault_plan
module Mem = Arc_fault.Campaign.Mem
module R = Arc_core.Arc.Make (Mem)
module Sup = Supervisor.Make (R)
module F = Sup.Fenced_reg
module P = Arc_workload.Payload.Make (Mem)

(* Injected transient read failures: each live read fails with the
   run's probability, drawn from one seeded stream (deterministic
   because the schedule itself is).  Wrapping the register — rather
   than patching the session — keeps the session code honest: it
   retries exactly what a real register would throw at it.

   The failure itself is no longer a hand-written string (ISSUE 8): it
   is produced by a {e real} admission-gate refusal — a module-level
   single-slot {!Admission.Pool} whose one ticket is permanently held,
   so every injection runs the production scan, takes the production
   [Backpressured] verdict (ticking the gate's backpressured counter),
   and raises through the production saturation constructor.  What the
   session retries against is therefore message-for-message what a
   saturated register would throw at it. *)
module Flaky = struct
  include R

  let gate = Admission.Pool.create ~capacity:1 ()

  let () =
    match Admission.Pool.admit gate ~now:0 with
    | Arc_core.Register_intf.Admitted _ -> ()
    | Arc_core.Register_intf.Backpressured _ ->
      assert false (* a fresh one-slot pool always admits *)

  let rate = ref 0.
  let rng = ref (Splitmix.of_int 0)

  let set ~seed ~rate:r =
    rate := r;
    rng := Splitmix.of_int seed

  let read_with rd ~f =
    (if !rate > 0. && Splitmix.bernoulli !rng !rate then
       match Admission.Pool.admit gate ~now:(Sched.now ()) with
       | Arc_core.Register_intf.Admitted _ -> assert false (* held forever *)
       | Arc_core.Register_intf.Backpressured bp ->
         Arc_util.Saturation.raise_saturated ~who:"Soak.Flaky.read (injected)"
           ~count:(bp.Arc_core.Register_intf.live + 1)
           ~bound:(Admission.Pool.capacity gate));
    R.read_with rd ~f

  let injected () = Arc_obs.Obs.Admission.backpressured_count (Admission.Pool.events gate)
end

module S = Session.Make (Flaky)

type cfg = {
  runs : int;
  seed : int;
  readers : int;
  size_words : int;
  max_steps : int;  (** per run; fibers self-terminate past this *)
  lease : int;  (** writer lease, in simulated steps *)
  deadline : int;  (** per-read budget, in simulated steps *)
  max_stale : int;  (** oldest snapshot a session may serve, in steps *)
  max_crash_readers : int;
}

let default =
  {
    runs = 50;
    seed = 2025;
    readers = 3;
    size_words = 16;
    max_steps = 30_000;
    lease = 2_000;
    deadline = 1_500;
    max_stale = 6_000;
    max_crash_readers = 2;
  }

(* The declared bounded-staleness contract, in writes.  A serve at time
   [t] returns a snapshot captured by a live read invoked at
   [t - max_stale - D] at the earliest, where [D] bounds that read's
   own duration (~3 passes over the snapshot).  Every write costs at
   least [size_words] simulated steps (its content copy alone), so the
   writes that completed in the window number at most
   [(max_stale + D) / size_words] plus small slack for the in-flight
   write at each end — rounded up into a margin of 10. *)
let staleness_bound cfg = (cfg.max_stale / cfg.size_words) + 10

(* {1 Scenarios} *)

type fate =
  | Healthy
  | Crash  (** writer crashes at a random access *)
  | Tear  (** writer crashes mid-copy, tearing the slot *)
  | Zombie of { after : int; pause : int }
      (** writer pauses [pause] steps after its [after]-th write *)

let fate_name = function
  | Healthy -> "healthy"
  | Crash -> "crash"
  | Tear -> "tear"
  | Zombie _ -> "zombie"

type scenario = {
  fate : fate;
  plan : Fault_plan.t;
  flaky_rate : float;
}

let scenario_of rng cfg =
  let plan = ref Fault_plan.empty in
  let fate =
    let u = Splitmix.float rng in
    if u < 0.20 then Healthy
    else if u < 0.40 then begin
      plan := Fault_plan.crash ~fiber:0 ~at_access:(1 + Splitmix.int rng 600) !plan;
      Crash
    end
    else if u < 0.55 then begin
      plan :=
        Fault_plan.tear ~fiber:0
          ~at_copy:(1 + Splitmix.int rng 8)
          ~at_word:(Splitmix.int rng cfg.size_words)
          ~silent:false !plan;
      Tear
    end
    else
      Zombie
        {
          after = 1 + Splitmix.int rng 6;
          pause = (2 * cfg.lease) + Splitmix.int rng cfg.lease;
        }
  in
  (* At most one mid-write writer stall, strictly below lease/2: a
     stalled-but-live writer must never be deposed mid-write (see the
     module comment on fault soundness). *)
  if Splitmix.bernoulli rng 0.4 then
    plan :=
      Fault_plan.stall ~fiber:0
        ~at_access:(1 + Splitmix.int rng 400)
        ~steps:(100 + Splitmix.int rng ((cfg.lease / 2) - 150))
        !plan;
  (* Standby stalls model a supervisor outage: failover is delayed and
     readers ride through on degraded serves. *)
  if Splitmix.bernoulli rng 0.3 then
    plan :=
      Fault_plan.stall ~fiber:1
        ~at_access:(1 + Splitmix.int rng 50)
        ~steps:(cfg.lease + Splitmix.int rng (2 * cfg.lease))
        !plan;
  (* Crash-stop readers (crash mid-read, holding their slot pins). *)
  let ncrash =
    if cfg.max_crash_readers = 0 then 0
    else Splitmix.int rng (min cfg.max_crash_readers cfg.readers + 1)
  in
  let victims = Array.init cfg.readers (fun i -> i + 2) in
  Splitmix.shuffle rng victims;
  for v = 0 to ncrash - 1 do
    plan :=
      Fault_plan.crash ~fiber:victims.(v)
        ~at_access:(1 + Splitmix.int rng 300)
        !plan
  done;
  if cfg.readers > 0 && Splitmix.bernoulli rng 0.5 then
    plan :=
      Fault_plan.stall
        ~fiber:(2 + Splitmix.int rng cfg.readers)
        ~at_access:(1 + Splitmix.int rng 200)
        ~steps:(100 + Splitmix.int rng (2 * cfg.lease))
        !plan;
  let flaky_rate =
    (* A heavy-saturation tail (rates ~0.5-0.7) makes sessions trip
       their breaker before any snapshot exists, exercising the
       [Exhausted] outcome; the common tail drives retries and stale
       serves. *)
    if Splitmix.bernoulli rng 0.15 then 0.5 +. (0.2 *. Splitmix.float rng)
    else if Splitmix.bernoulli rng 0.6 then 0.05 +. (0.25 *. Splitmix.float rng)
    else 0.
  in
  { fate; plan = !plan; flaky_rate }

(* {1 One run} *)

type run_report = {
  seed : int;
  fate : string;
  flaky_rate : float;
  plan : Fault_plan.t;
  writes : int;  (** incumbent + standby, as recorded *)
  standby_writes : int;
  outcomes : Outcomes.t;  (** merged across sessions *)
  serves_checked : int;  (** degraded serves checked against the bound *)
  torn : int;
  failovers : int;
  quarantined : int;  (** slots retired by crash recovery at promote *)
  fenced_writes : int;
  writer_crashed : bool;
  reader_crashes : int;
  stalls : int;
  tears : int;
  crash_outcome : Checker.crash_outcome option;
  violations : string list;
}

let check_cfg cfg =
  if cfg.readers < 1 then
    invalid_arg (Printf.sprintf "Soak: readers = %d (need >= 1)" cfg.readers);
  if cfg.size_words < 1 then
    invalid_arg (Printf.sprintf "Soak: size_words = %d (need >= 1)" cfg.size_words);
  if cfg.lease < 400 then
    invalid_arg (Printf.sprintf "Soak: lease = %d (need >= 400)" cfg.lease);
  if cfg.deadline < 1 then
    invalid_arg (Printf.sprintf "Soak: deadline = %d (need >= 1)" cfg.deadline);
  if cfg.max_stale < 0 then
    invalid_arg (Printf.sprintf "Soak: max_stale = %d (need >= 0)" cfg.max_stale)

let run_one ~seed (cfg : cfg) : run_report =
  check_cfg cfg;
  let rng = Splitmix.of_int seed in
  let scen = scenario_of rng cfg in
  let strategy = Strategy.random ~seed:(seed + 1) in
  Flaky.set ~seed:(seed + 2) ~rate:scen.flaky_rate;
  let size = cfg.size_words in
  let init = Array.make size 0 in
  P.stamp init ~seq:0 ~len:size;
  (* Identities: [0, readers) for the sessions, [readers] the standby's
     spare; two more stay unclaimed as over-provisioned slots — a
     writer crash between its publish (W2) and freeze (W3) leaks the
     superseded slot's accounting, and the spares keep Lemma 4.1's
     free-slot guarantee strict even then (both unclaimed units pin
     the initial slot together, so each spare is a net extra slot). *)
  let freg = F.create ~readers:(cfg.readers + 3) ~capacity:size ~init in
  let sup = Sup.create ~now:Sched.now ~lease:cfg.lease freg in
  let threads = cfg.readers + 2 in
  let recorder = History.Recorder.create ~threads ~capacity:20_000 in
  let crashed = Array.make threads false in
  let ops = Array.make threads 0 in
  let torn = ref 0 in
  let pending = ref None in
  let stale_serves = ref [] in
  let sessions = Array.make cfg.readers None in

  let writer_a () =
    try
      let w = Sup.acquire sup in
      let src = Array.make size 0 in
      let seq = ref 0 in
      try
        while Sched.now () < cfg.max_steps do
          (match scen.fate with
          | Zombie { after; pause } when !seq = after -> Sched.sleep pause
          | _ -> ());
          incr seq;
          P.stamp src ~seq:!seq ~len:size;
          let invoked = Sched.now () in
          pending := Some (!seq, invoked);
          F.write w ~src ~len:size;
          History.Recorder.record recorder ~thread:0 History.Write ~seq:!seq
            ~invoked ~returned:(Sched.now ());
          pending := None;
          ops.(0) <- ops.(0) + 1;
          Sup.heartbeat sup w;
          Sched.cede ()
        done
      with Fenced.Fenced_out _ ->
        (* Deposed: the aborted attempt published nothing. *)
        pending := None
    with Fault_plan.Crashed -> crashed.(0) <- true
  in

  let standby_b () =
    let continue_writing w start_seq =
      let src = Array.make size 0 in
      let seq = ref start_seq in
      try
        while Sched.now () < cfg.max_steps do
          incr seq;
          P.stamp src ~seq:!seq ~len:size;
          let invoked = Sched.now () in
          F.write w ~src ~len:size;
          History.Recorder.record recorder ~thread:1 History.Write ~seq:!seq
            ~invoked ~returned:(Sched.now ());
          ops.(1) <- ops.(1) + 1;
          Sup.heartbeat sup w;
          Sched.cede ()
        done
      with Fenced.Fenced_out _ -> ()
    in
    let rec monitor () =
      if Sched.now () >= cfg.max_steps then ()
      else if Sup.expired sup then begin
        match Sup.promote sup with
        | Sup.Election.Won { writer = w; _ } ->
          (* Learn where the write sequence stands through the spare
             reader handle; a pending write that published before the
             fence is picked up here and continued from. *)
          let rd = F.reader freg cfg.readers in
          let last = R.read_with rd ~f:(fun buf _len -> P.decode_seq buf) in
          continue_writing w last
        | Sup.Election.Lost _ ->
          (* Another candidate won this suspicion; keep monitoring. *)
          Sched.cede ();
          monitor ()
      end
      else begin
        Sched.cede ();
        monitor ()
      end
    in
    monitor ()
  in

  let reader_body id () =
    try
      let rd = F.reader freg id in
      let session =
        S.create
          ~backoff:
            (Backoff.create ~base:8
               ~cap:(max 8 (cfg.deadline / 2))
               ~seed:(seed + 100 + id) ())
          ~breaker:
            (Breaker.create ~failure_threshold:3
               ~cooldown:(max 16 (cfg.lease / 2))
               ~now:Sched.now ())
          ~max_stale:cfg.max_stale ~now:Sched.now ~sleep:Sched.sleep
          ~capacity:size rd
      in
      sessions.(id) <- Some session;
      let f buf len =
        match P.validate buf ~len with
        | Ok s -> s
        | Error _ ->
          incr torn;
          P.decode_seq buf
      in
      while Sched.now () < cfg.max_steps do
        let invoked = Sched.now () in
        let deadline = invoked + cfg.deadline in
        (match S.read_with ~deadline session ~f with
        | S.Fresh s ->
          History.Recorder.record recorder ~thread:(id + 2) History.Read ~seq:s
            ~invoked ~returned:(Sched.now ())
        | S.Stale { value = s; age = _ } ->
          stale_serves :=
            { Checker.thread = id + 2; seq = s; at = Sched.now () }
            :: !stale_serves
        | S.Exhausted _ | S.Backpressured _ -> ());
        ops.(id + 2) <- ops.(id + 2) + 1;
        Sched.cede ()
      done
    with Fault_plan.Crashed -> crashed.(id + 2) <- true
  in

  let fibers =
    Array.init threads (fun i ->
        if i = 0 then writer_a
        else if i = 1 then standby_b
        else reader_body (i - 2))
  in
  Mem.install scen.plan;
  let backstop = (cfg.max_steps * 3) + 100_000 in
  let sched_outcome = Sched.run ~max_steps:backstop ~strategy fibers in
  let fstats = Mem.drain () in
  Flaky.set ~seed:0 ~rate:0.;

  (* Judge. *)
  let outcomes = Outcomes.create () in
  Array.iter
    (function
      | Some s ->
        (* Sessions count in per-domain Obs cells; after the vsched run
           every fiber is quiescent, so the snapshot is exact. *)
        Outcomes.merge_into ~src:(S.Outcomes.snapshot (S.outcomes s)) ~dst:outcomes
      | None -> ())
    sessions;
  let history = History.Recorder.history recorder in
  let pending_write = if crashed.(0) then !pending else None in
  let fence = Sup.last_fence sup in
  let check = Checker.check_crash ?pending_write ?fence history in
  let serves = List.rev !stale_serves in
  let stale_check =
    Checker.check_bounded_staleness history ~bound:(staleness_bound cfg) serves
  in
  let reader_crashes =
    let n = ref 0 in
    Array.iteri (fun i c -> if i >= 2 && c then incr n) crashed;
    !n
  in
  let violations = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> violations := m :: !violations) fmt in
  if !torn > 0 then fail "%d torn snapshots" !torn;
  if History.Recorder.dropped recorder > 0 then
    fail "recorder overflow (%d events dropped)"
      (History.Recorder.dropped recorder);
  if sched_outcome.Sched.unfinished > 0 then
    fail "%d fibers never finished (hang/livelock inside the backstop)"
      sched_outcome.Sched.unfinished;
  Array.iteri
    (fun i o ->
      if i >= 2 && (not crashed.(i)) && o = 0 then
        fail "surviving reader %d completed no operation" (i - 2))
    ops;
  (match check with
  | Ok _ -> ()
  | Error v -> fail "%s" (Format.asprintf "%a" Checker.pp_violation v));
  (match stale_check with
  | Ok _ -> ()
  | Error v -> fail "%s" (Format.asprintf "%a" Checker.pp_staleness_violation v));
  if not crashed.(0) then begin
    (* Quiescent ARC ledger audit (skipped when the incumbent crashed
       mid-operation: its half-done slot legitimately unbalances the
       ledger; a fence-aborted write does not). *)
    let reg = F.inner freg in
    let slack = R.Debug.presence_slack reg in
    if slack < 0 || slack > reader_crashes then
      fail "presence-ledger slack %d outside [0, %d crashed readers]" slack
        reader_crashes;
    if not (R.Debug.free_slot_exists reg) then
      fail "no free slot among the N+2 (Lemma 4.1 violated)"
  end;
  {
    seed;
    fate = fate_name scen.fate;
    flaky_rate = scen.flaky_rate;
    plan = scen.plan;
    writes = ops.(0) + ops.(1);
    standby_writes = ops.(1);
    outcomes;
    serves_checked = (match stale_check with Ok n -> n | Error _ -> 0);
    torn = !torn;
    failovers = Sup.failovers sup;
    quarantined = Sup.quarantined sup;
    fenced_writes = F.fenced_writes freg;
    writer_crashed = crashed.(0);
    reader_crashes;
    stalls = fstats.Arc_fault.Fault_mem.stalls;
    tears = List.length fstats.Arc_fault.Fault_mem.tears;
    crash_outcome = (match check with Ok (_, o) -> Some o | Error _ -> None);
    violations = List.rev !violations;
  }

(* {1 The soak loop} *)

type outcome = {
  runs : int;
  writes : int;
  reads_fresh : int;
  stale_serves : int;
  exhausted : int;
  retries : int;
  injected_errors : int;
  failovers : int;
  handoffs : int;  (** runs where a promoted standby went on to write *)
  quarantined : int;  (** slots retired by successor crash recovery *)
  fenced_writes : int;
  writer_crashes : int;
  reader_crashes : int;
  zombies : int;
  stalls : int;
  tears : int;
  vanished : int;
  took_effect : int;
  violations : (int * string) list;  (** (run seed, description) *)
}

let clean o = o.violations = []

let pp_outcome ppf o =
  Format.fprintf ppf
    "@[<v>%d runs: %d writes, %d fresh reads, %d stale serves, %d exhausted, \
     %d retries (%d injected errors)@,\
     %d failovers (%d completed handoffs, %d slots quarantined), %d fenced \
     writes; %d writer crashes, %d zombies, %d reader crashes, %d stalls, \
     %d tears@,\
     pending writes: %d vanished, %d took effect — %s@]"
    o.runs o.writes o.reads_fresh o.stale_serves o.exhausted o.retries
    o.injected_errors o.failovers o.handoffs o.quarantined o.fenced_writes
    o.writer_crashes o.zombies o.reader_crashes o.stalls o.tears o.vanished
    o.took_effect
    (if o.violations = [] then "CLEAN"
     else Printf.sprintf "%d VIOLATIONS" (List.length o.violations))

(* Aggregate counters as exposition metrics for the --metrics flag of
   the soak binary. *)
let metrics (o : outcome) =
  let open Arc_obs.Obs in
  [
    counter "soak_runs_total" ~help:"Completed soak runs" o.runs;
    counter "soak_writes_total" ~help:"Writes across all runs" o.writes;
    counter "soak_reads_fresh_total" ~help:"Fresh session reads" o.reads_fresh;
    counter "soak_stale_serves_total" ~help:"Degraded stale serves"
      o.stale_serves;
    counter "soak_exhausted_total" ~help:"Exhausted session reads" o.exhausted;
    counter "soak_retries_total" ~help:"Session retry attempts" o.retries;
    counter "soak_injected_errors_total" ~help:"Injected transient errors"
      o.injected_errors;
    counter "soak_failovers_total" ~help:"Supervisor promotions" o.failovers;
    counter "soak_handoffs_total" ~help:"Promotions followed by standby writes"
      o.handoffs;
    counter "soak_quarantined_slots_total"
      ~help:"Slots retired by successor crash recovery" o.quarantined;
    counter "soak_fenced_writes_total" ~help:"Writes through the epoch fence"
      o.fenced_writes;
    counter "soak_writer_crashes_total" ~help:"Injected writer crashes"
      o.writer_crashes;
    counter "soak_reader_crashes_total" ~help:"Injected reader crashes"
      o.reader_crashes;
    counter "soak_zombie_runs_total" ~help:"Runs with a zombie incumbent"
      o.zombies;
    counter "soak_tears_total"
      ~help:
        "Torn snapshots observed in fault windows (injected tears the \
         session layer must surface as errors, never serve)"
      o.tears;
    counter "soak_violations_total" ~help:"Checker violations (must stay 0)"
      (List.length o.violations);
  ]

let derive_seed (cfg : cfg) k = Arc_report.Driver.derive_seed cfg.seed k

(* The flags both campaigns' replay commands end with. *)
let cfg_args cfg =
  Arc_report.Replay.
    [
      int "--readers" cfg.readers;
      int "--size" cfg.size_words;
      int "--steps" cfg.max_steps;
      int "--lease" cfg.lease;
      int "--deadline" cfg.deadline;
      int "--max-stale" cfg.max_stale;
    ]

let replay_command ~seed cfg =
  Arc_report.Replay.(
    render ~exe:"dune exec bin/soak.exe --" (int "--replay" seed :: cfg_args cfg))

let run ?(on_run = fun (_ : run_report) -> ()) (cfg : cfg) : outcome =
  check_cfg cfg;
  let o =
    ref
      {
        runs = 0;
        writes = 0;
        reads_fresh = 0;
        stale_serves = 0;
        exhausted = 0;
        retries = 0;
        injected_errors = 0;
        failovers = 0;
        handoffs = 0;
        quarantined = 0;
        fenced_writes = 0;
        writer_crashes = 0;
        reader_crashes = 0;
        zombies = 0;
        stalls = 0;
        tears = 0;
        vanished = 0;
        took_effect = 0;
        violations = [];
      }
  in
  for k = 1 to cfg.runs do
    let seed = derive_seed cfg k in
    match run_one ~seed cfg with
    | exception e ->
      o :=
        {
          !o with
          runs = !o.runs + 1;
          violations =
            (seed, Printf.sprintf "run raised: %s" (Printexc.to_string e))
            :: !o.violations;
        }
    | r ->
      on_run r;
      let a = !o in
      o :=
        {
          runs = a.runs + 1;
          writes = a.writes + r.writes;
          reads_fresh = a.reads_fresh + Outcomes.ok_count r.outcomes;
          stale_serves = a.stale_serves + Outcomes.stale_count r.outcomes;
          exhausted = a.exhausted + Outcomes.exhausted_count r.outcomes;
          retries = a.retries + Outcomes.retry_count r.outcomes;
          injected_errors = a.injected_errors + Outcomes.error_count r.outcomes;
          failovers = a.failovers + r.failovers;
          handoffs =
            (a.handoffs + if r.failovers > 0 && r.standby_writes > 0 then 1 else 0);
          quarantined = a.quarantined + r.quarantined;
          fenced_writes = a.fenced_writes + r.fenced_writes;
          writer_crashes = (a.writer_crashes + if r.writer_crashed then 1 else 0);
          reader_crashes = a.reader_crashes + r.reader_crashes;
          zombies = (a.zombies + if r.fate = "zombie" then 1 else 0);
          stalls = a.stalls + r.stalls;
          tears = a.tears + r.tears;
          vanished =
            (a.vanished
            + match r.crash_outcome with Some Checker.Vanished -> 1 | _ -> 0);
          took_effect =
            (a.took_effect
            + match r.crash_outcome with Some Checker.Took_effect -> 1 | _ -> 0);
          violations =
            List.map (fun m -> (seed, m)) r.violations @ a.violations;
        }
  done;
  !o

(* {1 Negative control: the same handoff, unfenced}

   Both the deposed incumbent and the promoted standby write through
   the raw register — no epoch, no guard.  After the incumbent's pause
   the two writers overlap: duplicate sequence numbers (both continue
   from the same history), torn slots (both preparing the same "free"
   slot), or a broken free-slot invariant.  The run is {e convicted}
   if the checker or the integrity probes catch any of it — showing
   the fence, not luck, is what keeps the fenced soak clean. *)

let unfenced_control ~seed (cfg : cfg) : bool * string list =
  check_cfg cfg;
  Flaky.set ~seed ~rate:0.;
  let strategy = Strategy.random ~seed:(seed + 1) in
  let size = cfg.size_words in
  let init = Array.make size 0 in
  P.stamp init ~seq:0 ~len:size;
  let reg = R.create ~readers:(cfg.readers + 3) ~capacity:size ~init in
  let threads = cfg.readers + 2 in
  let recorder = History.Recorder.create ~threads ~capacity:20_000 in
  let torn = ref 0 in
  let anomalies = ref [] in
  let hb = ref 0 in
  let pause_after = 3 in
  let writer thread start_delay () =
    try
      (* The "failure detector" of this control is deliberately naive:
         wall-clock heartbeat age, no fencing on promotion. *)
      let rec wait () =
        if Sched.now () >= cfg.max_steps then None
        else if thread = 0 then Some 0
        else if Sched.now () - !hb > cfg.lease then begin
          let rd = R.reader reg cfg.readers in
          Some (R.read_with rd ~f:(fun buf _len -> P.decode_seq buf))
        end
        else begin
          Sched.cede ();
          wait ()
        end
      in
      match wait () with
      | None -> ()
      | Some start_seq ->
        let src = Array.make size 0 in
        let seq = ref start_seq in
        while Sched.now () < cfg.max_steps do
          if thread = 0 && !seq = start_delay then Sched.sleep (3 * cfg.lease);
          incr seq;
          P.stamp src ~seq:!seq ~len:size;
          let invoked = Sched.now () in
          R.write reg ~src ~len:size;
          History.Recorder.record recorder ~thread History.Write ~seq:!seq
            ~invoked ~returned:(Sched.now ());
          hb := Sched.now ();
          Sched.cede ()
        done
    with Failure msg -> anomalies := msg :: !anomalies
  in
  let reader_body id () =
    let rd = R.reader reg id in
    while Sched.now () < cfg.max_steps do
      let invoked = Sched.now () in
      let seq =
        R.read_with rd ~f:(fun buf len ->
            match P.validate buf ~len with
            | Ok s -> s
            | Error _ ->
              incr torn;
              P.decode_seq buf)
      in
      History.Recorder.record recorder ~thread:(id + 2) History.Read ~seq
        ~invoked ~returned:(Sched.now ());
      Sched.cede ()
    done
  in
  let fibers =
    Array.init threads (fun i ->
        if i = 0 then writer 0 pause_after
        else if i = 1 then writer 1 (-1)
        else reader_body (i - 2))
  in
  Mem.install Fault_plan.empty;
  let backstop = (cfg.max_steps * 3) + 100_000 in
  let sched_outcome = Sched.run ~max_steps:backstop ~strategy fibers in
  ignore (Mem.drain ());
  let reasons = ref !anomalies in
  if !torn > 0 then reasons := Printf.sprintf "%d torn snapshots" !torn :: !reasons;
  if sched_outcome.Sched.unfinished > 0 then
    reasons :=
      Printf.sprintf "%d fibers never finished" sched_outcome.Sched.unfinished
      :: !reasons;
  (match Checker.check (History.Recorder.history recorder) with
  | Ok _ -> ()
  | Error v -> reasons := Format.asprintf "%a" Checker.pp_violation v :: !reasons);
  (!reasons <> [], !reasons)

(* {1 Churn campaign (ISSUE 8)}

   The soak above holds its reader population fixed for a run — the
   paper's model.  The churn campaign is the opposite regime: a small
   admission gate (capacity N) in front of [Arc_dynamic], and an
   unbounded stream of short-lived readers arriving on [lanes]
   concurrent lanes, each tenancy admitted through the gate, reading
   through a deadline-aware session over the gate's {e persistent}
   handle, then departing — or abandoning its ticket (modeling
   kill -9), leaving the lease sweep to evict it.  Lanes can also be
   crash-stopped mid-read by the fault plan (a pin leaked {e inside}
   the register, on top of the ticket leaked in the gate).

   Judged like the main soak — atomicity, bounded staleness, presence
   ledger — plus the gate's own books: ticket conservation
   (admitted − departed − evicted = live at quiescence), the
   N + 2 live-buffer bound against an arrival population ≫ N, and the
   headline guarantee that {e no} [Saturated] raise escapes past the
   gate to churn code. *)

module D = Arc_core.Arc_dynamic.Make (Mem)
module DS = Session.Make (D)
module DGate = Admission.Make (D)
module Packed = Arc_util.Packed

type churn_cfg = {
  base : cfg;
  rate : float;  (** arrival probability per lane per idle scheduling point *)
  gate_capacity : int;  (** N: reader identities the gate leases out *)
  lanes : int;  (** concurrent churner fibers *)
  waiting_room : int;  (** bounded waiting-room size of [admit_wait] *)
  crash_frac : float;  (** fraction of tenancies that abandon without depart *)
}

let default_churn =
  {
    base = { default with readers = 4 };
    rate = 0.02;
    gate_capacity = 4;
    lanes = 6;
    waiting_room = 2;
    crash_frac = 0.3;
  }

let check_churn_cfg c =
  check_cfg c.base;
  if c.rate <= 0. || c.rate > 1. then
    invalid_arg (Printf.sprintf "Soak churn: rate = %g (need 0 < rate <= 1)" c.rate);
  if c.gate_capacity < 1 then
    invalid_arg (Printf.sprintf "Soak churn: gate = %d (need >= 1)" c.gate_capacity);
  if c.lanes < 1 then
    invalid_arg (Printf.sprintf "Soak churn: lanes = %d (need >= 1)" c.lanes);
  if c.waiting_room < 0 then
    invalid_arg (Printf.sprintf "Soak churn: room = %d (need >= 0)" c.waiting_room);
  if c.crash_frac < 0. || c.crash_frac > 1. then
    invalid_arg (Printf.sprintf "Soak churn: crash-frac = %g" c.crash_frac)

type churn_report = {
  cseed : int;
  arrivals : int;
  cadmitted : int;
  cbackpressured : int;
  cdeparted : int;
  cevicted : int;
  abandoned : int;  (** tenancies that deliberately skipped depart *)
  lane_crashes : int;
  cwrites : int;
  coutcomes : Outcomes.t;
  refused_serves : int;  (** session reads refused by the admission guard *)
  cserves_checked : int;
  chigh_water : int;
  live_buffers_max : int;
  cviolations : string list;
}

(* Lane fates.  Crashes and over-lease pauses are modeled {e between}
   reads (the [crash_frac] abandonment arm and the oversleep arm in
   the lane body), never mid-access: an identity whose holder died
   mid-read cannot be re-leased by anyone — the handle's private
   cursor and the ledger's pin can disagree, and the paper's model
   retires such identities forever.  The gate's contract is
   accordingly that tenancies end between reads (a process-level
   kill -9 satisfies this trivially: the dead process's handle state
   dies with it; the gate's persistent handle was last touched at a
   read boundary).  Fault-plan stalls stay strictly below the ticket
   lease for the same lease-discipline reason as writer stalls in the
   failover soak: a slower-but-live holder must not be evicted while a
   read is in flight on its handle. *)
let churn_plan rng (c : churn_cfg) =
  let plan = ref Fault_plan.empty in
  let nstall = Splitmix.int rng ((c.lanes / 2) + 1) in
  let victims = Array.init c.lanes (fun i -> i + 2) in
  Splitmix.shuffle rng victims;
  for v = 0 to nstall - 1 do
    plan :=
      Fault_plan.stall ~fiber:victims.(v)
        ~at_access:(1 + Splitmix.int rng 2_000)
        ~steps:(100 + Splitmix.int rng (max 101 ((c.base.lease / 3) - 100)))
        !plan
  done;
  !plan

let run_churn_one ~seed ~join ~leave (c : churn_cfg) : churn_report =
  check_churn_cfg c;
  let cfg = c.base in
  let rng = Splitmix.of_int seed in
  let plan = churn_plan rng c in
  let strategy = Strategy.random ~seed:(seed + 1) in
  let size = cfg.size_words in
  let init = Array.make size 0 in
  P.stamp init ~seq:0 ~len:size;
  let dreg = D.create ~readers:c.gate_capacity ~capacity:size ~init in
  (* Storage-reclaim lease in writes, derived from the time lease the
     way [staleness_bound] converts steps to writes. *)
  let reclaim_lease = max 1 (cfg.lease / size) in
  D.set_lease dreg (Some reclaim_lease);
  let reclaim_requested = ref false in
  let gate =
    DGate.create ~room:c.waiting_room ~lease:cfg.lease
      ~on_release:(fun () -> reclaim_requested := true)
      ~now:Sched.now ~sleep:Sched.sleep ~base:0 ~capacity:c.gate_capacity dreg
  in
  let threads = c.lanes + 2 in
  let recorder = History.Recorder.create ~threads ~capacity:20_000 in
  let crashed = Array.make threads false in
  let ops = Array.make threads 0 in
  let torn = ref 0 in
  let arrivals = ref 0 in
  let abandoned = ref 0 in
  let refused_serves = ref 0 in
  let escaped = ref [] in
  let stale_serves = ref [] in
  let live_buffers_max = ref 0 in
  let late_frees = ref 0 in
  let outcomes = Outcomes.create () in

  let writer () =
    try
      let src = Array.make size 0 in
      let seq = ref 0 in
      while Sched.now () < cfg.max_steps do
        incr seq;
        P.stamp src ~seq:!seq ~len:size;
        let invoked = Sched.now () in
        D.write dreg ~src ~len:size;
        History.Recorder.record recorder ~thread:0 History.Write ~seq:!seq
          ~invoked ~returned:(Sched.now ());
        ops.(0) <- ops.(0) + 1;
        (* Depart-triggered reclaim runs here — storage revocation is
           the writer's side of the protocol, so the gate's
           [on_release] only raises a flag. *)
        if !reclaim_requested then begin
          reclaim_requested := false;
          ignore (D.reclaim_stale dreg ~lease:reclaim_lease)
        end;
        Sched.cede ()
      done
    with Fault_plan.Crashed -> crashed.(0) <- true
  in

  let janitor () =
    while Sched.now () < cfg.max_steps do
      Sched.sleep (max 1 (cfg.lease / 2));
      ignore (DGate.sweep gate);
      live_buffers_max := max !live_buffers_max (D.live_buffers dreg);
      ops.(1) <- ops.(1) + 1;
      Sched.cede ()
    done
  in

  let lane k () =
    let thread = k + 2 in
    let lrng = Splitmix.of_int ((seed * 31) + 7_777 + k) in
    let f buf len =
      match P.validate buf ~len with
      | Ok s -> s
      | Error _ ->
        incr torn;
        P.decode_seq buf
    in
    try
      while Sched.now () < cfg.max_steps do
        if Splitmix.float lrng < c.rate then begin
          incr arrivals;
          let t0 = Sched.now () in
          match DGate.admit_wait ~deadline:(t0 + cfg.deadline) gate with
          | Arc_core.Register_intf.Backpressured bp ->
            (* Come back later, as told — jittered by the verdict. *)
            Sched.sleep bp.Arc_core.Register_intf.retry_after
          | Arc_core.Register_intf.Admitted ticket ->
            Arc_util.Histogram.record join (Sched.now () - t0);
            let session =
              DS.create
                ~admission:(DGate.guard gate ticket)
                ~backoff:
                  (Backoff.create ~base:8
                     ~cap:(max 8 (cfg.deadline / 2))
                     ~seed:(seed + 500 + !arrivals) ())
                ~breaker:
                  (Breaker.create ~failure_threshold:3
                     ~cooldown:(max 16 (cfg.lease / 2))
                     ~now:Sched.now ())
                ~max_stale:cfg.max_stale ~now:Sched.now ~sleep:Sched.sleep
                ~capacity:size (DGate.reader gate ticket)
            in
            let tenancy_reads = 1 + Splitmix.int lrng 8 in
            (* The oversleep arm: a holder paused past its lease — a
               long GC or VM migration — taken {e between} reads, where
               no operation is in flight on the handle.  The sweep
               evicts it; on waking, the session's admission guard
               refuses before the handle is touched, and the late
               depart below must fail its generation CAS rather than
               free the identity out from under the next tenant. *)
            let oversleep =
              if Splitmix.bernoulli lrng 0.15 then
                1 + Splitmix.int lrng tenancy_reads
              else -1
            in
            let evicted_underfoot = ref false in
            (let r = ref 0 in
             while (not !evicted_underfoot) && !r < tenancy_reads
                   && Sched.now () < cfg.max_steps do
               incr r;
               if !r = oversleep then
                 Sched.sleep (cfg.lease + (cfg.lease / 2));
               let invoked = Sched.now () in
               (match DS.read_with ~deadline:(invoked + cfg.deadline) session ~f with
               | DS.Fresh s ->
                 History.Recorder.record recorder ~thread History.Read ~seq:s
                   ~invoked ~returned:(Sched.now ())
               | DS.Stale { value = s; _ } ->
                 stale_serves :=
                   { Checker.thread; seq = s; at = Sched.now () } :: !stale_serves
               | DS.Exhausted _ -> ()
               | DS.Backpressured _ ->
                 (* Our lease was swept out from under us (a stall made
                    us look dead).  Stop using the identity at once. *)
                 incr refused_serves;
                 evicted_underfoot := true);
               ops.(thread) <- ops.(thread) + 1;
               if not (DGate.renew gate ticket) then evicted_underfoot := true;
               Sched.cede ()
             done);
            Outcomes.merge_into
              ~src:(DS.Outcomes.snapshot (DS.outcomes session))
              ~dst:outcomes;
            if !evicted_underfoot then begin
              (* Reclaim-then-late-release: the evicted zombie's depart
                 must lose its generation CAS — a success here would
                 free the identity out from under its next tenant. *)
              if DGate.depart gate ticket then incr late_frees
            end
            else if Splitmix.float lrng < c.crash_frac then
              (* kill -9: walk away with the ticket held; the sweep
                 pays for the funeral. *)
              incr abandoned
            else ignore (DGate.depart gate ticket);
            Arc_util.Histogram.record leave (Sched.now () - t0)
        end
        else Sched.cede ()
      done
    with
    | Fault_plan.Crashed -> crashed.(thread) <- true
    | Arc_core.Register_intf.Saturated msg ->
      (* The headline guarantee: gate-fronted churn must never see
         this.  Recorded as a violation, not re-raised, so the run
         still quiesces and reports. *)
      escaped := msg :: !escaped
  in

  let fibers =
    Array.init threads (fun i ->
        if i = 0 then writer else if i = 1 then janitor else lane (i - 2))
  in
  Mem.install plan;
  let backstop = (cfg.max_steps * 3) + 100_000 in
  let sched_outcome = Sched.run ~max_steps:backstop ~strategy fibers in
  ignore (Mem.drain ());

  (* Judge. *)
  let history = History.Recorder.history recorder in
  let check = Checker.check history in
  let serves = List.rev !stale_serves in
  let stale_check =
    Checker.check_bounded_staleness history ~bound:(staleness_bound cfg) serves
  in
  let lane_crashes =
    let n = ref 0 in
    Array.iteri (fun i cr -> if i >= 2 && cr then incr n) crashed;
    !n
  in
  let pool = DGate.pool gate in
  let ev = Admission.Pool.events pool in
  let admitted = Arc_obs.Obs.Admission.admitted_count ev in
  let backpressured = Arc_obs.Obs.Admission.backpressured_count ev in
  let departed = Arc_obs.Obs.Admission.departed_count ev in
  let evicted = Arc_obs.Obs.Admission.evicted_count ev in
  let violations = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> violations := m :: !violations) fmt in
  List.iter (fun m -> fail "Saturated escaped the admission gate: %s" m) !escaped;
  if !torn > 0 then fail "%d torn snapshots" !torn;
  if History.Recorder.dropped recorder > 0 then
    fail "recorder overflow (%d events dropped)"
      (History.Recorder.dropped recorder);
  if sched_outcome.Sched.unfinished > 0 then
    fail "%d fibers never finished (hang/livelock inside the backstop)"
      sched_outcome.Sched.unfinished;
  (match check with
  | Ok _ -> ()
  | Error v -> fail "%s" (Format.asprintf "%a" Checker.pp_violation v));
  (match stale_check with
  | Ok _ -> ()
  | Error v -> fail "%s" (Format.asprintf "%a" Checker.pp_staleness_violation v));
  (* Ticket conservation at quiescence. *)
  if admitted - departed - evicted <> Admission.Pool.live pool then
    fail "ticket books don't balance: %d admitted - %d departed - %d evicted <> %d live"
      admitted departed evicted (Admission.Pool.live pool);
  if Admission.Pool.high_water pool > c.gate_capacity then
    fail "high water %d exceeds gate capacity %d"
      (Admission.Pool.high_water pool) c.gate_capacity;
  (* The N+2 claim under unbounded arrivals. *)
  live_buffers_max := max !live_buffers_max (D.live_buffers dreg);
  if !live_buffers_max > c.gate_capacity + 2 then
    fail "%d live buffers exceed the N+2 bound (N = %d)" !live_buffers_max
      c.gate_capacity;
  if !late_frees > 0 then
    fail "%d late departs freed an evicted ticket (generation CAS failed open)"
      !late_frees;
  (* Presence ledger: abandonment, eviction and late departs all leave
     the register's ledger untouched (the persistent handle keeps each
     identity's pin well-formed), so the slack must be exactly zero —
     unlike the failover soak there are no mid-read crashes here. *)
  let slack = D.Debug.presence_slack dreg in
  if slack <> 0 then
    fail "presence-ledger slack %d (must be 0: tenancies end between reads)"
      slack;
  if not (D.Debug.free_slot_exists dreg) then
    fail "no free slot among the N+2 (Lemma 4.1 violated)";
  (* Non-vacuity: the campaign must actually churn. *)
  if !arrivals = 0 then fail "no arrivals (vacuous run)";
  if admitted = 0 then fail "no admissions (vacuous run)";
  if ops.(0) = 0 then fail "writer made no writes";
  {
    cseed = seed;
    arrivals = !arrivals;
    cadmitted = admitted;
    cbackpressured = backpressured;
    cdeparted = departed;
    cevicted = evicted;
    abandoned = !abandoned;
    lane_crashes;
    cwrites = ops.(0);
    coutcomes = outcomes;
    refused_serves = !refused_serves;
    cserves_checked = (match stale_check with Ok n -> n | Error _ -> 0);
    chigh_water = Admission.Pool.high_water pool;
    live_buffers_max = !live_buffers_max;
    cviolations = List.rev !violations;
  }

type churn_outcome = {
  cruns : int;
  arrivals : int;
  admitted : int;
  backpressured : int;
  departed : int;
  evicted : int;
  abandoned : int;
  lane_crashes : int;
  writes : int;
  reads_fresh : int;
  stale_serves : int;
  exhausted : int;
  refused_serves : int;
  serves_checked : int;
  high_water_max : int;
  live_buffers_max : int;
  join : Arc_util.Histogram.t;  (** arrival -> admitted, simulated steps *)
  leave : Arc_util.Histogram.t;  (** arrival -> tenancy end, simulated steps *)
  churn_violations : (int * string) list;
}

let churn_clean o = o.churn_violations = []

let pp_churn_outcome ppf o =
  let pct h p =
    if Arc_util.Histogram.count h = 0 then -1
    else Arc_util.Histogram.percentile h p
  in
  Format.fprintf ppf
    "@[<v>%d churn runs: %d arrivals -> %d admitted, %d backpressured; %d \
     departed, %d evicted (%d abandoned, %d lane crashes)@,\
     %d writes, %d fresh reads, %d stale serves, %d exhausted, %d refused \
     serves; high water %d, live buffers max %d@,\
     join p50/p99: %d/%d steps, tenancy p50/p99: %d/%d steps — %s@]"
    o.cruns o.arrivals o.admitted o.backpressured o.departed o.evicted
    o.abandoned o.lane_crashes o.writes o.reads_fresh o.stale_serves
    o.exhausted o.refused_serves o.high_water_max o.live_buffers_max
    (pct o.join 50.) (pct o.join 99.) (pct o.leave 50.) (pct o.leave 99.)
    (if o.churn_violations = [] then "CLEAN"
     else Printf.sprintf "%d VIOLATIONS" (List.length o.churn_violations))

let churn_metrics (o : churn_outcome) =
  let open Arc_obs.Obs in
  let quantiles name h help =
    if Arc_util.Histogram.count h = 0 then []
    else
      List.map
        (fun (q, p) ->
          gauge name
            ~labels:[ ("quantile", q) ]
            ~help
            (float_of_int (Arc_util.Histogram.percentile h p)))
        [ ("0.5", 50.); ("0.99", 99.) ]
  in
  [
    counter "soak_churn_runs_total" ~help:"Completed churn runs" o.cruns;
    counter "soak_churn_arrivals_total" ~help:"Reader arrivals offered to the gate"
      o.arrivals;
    counter "arc_admission_admitted_total" ~help:"Admissions granted" o.admitted;
    counter "arc_admission_backpressured_total"
      ~help:"Arrivals refused with a typed verdict" o.backpressured;
    counter "arc_admission_departed_total" ~help:"Tickets explicitly departed"
      o.departed;
    counter "arc_admission_evicted_total" ~help:"Tickets reclaimed by lease sweep"
      o.evicted;
    counter "soak_churn_abandoned_total"
      ~help:"Tenancies that walked away without departing" o.abandoned;
    counter "soak_churn_lane_crashes_total" ~help:"Crash-stopped churn lanes"
      o.lane_crashes;
    counter "soak_churn_refused_serves_total"
      ~help:"Session reads refused after a lease sweep revoked the ticket"
      o.refused_serves;
    gauge "soak_churn_live_buffers_max"
      ~help:"Peak live-buffer count (bound: gate capacity + 2)"
      (float_of_int o.live_buffers_max);
    counter "soak_churn_violations_total" ~help:"Checker violations (must stay 0)"
      (List.length o.churn_violations);
  ]
  @ quantiles "soak_churn_join_steps" o.join
      "Arrival-to-admission latency (simulated steps)"
  @ quantiles "soak_churn_tenancy_steps" o.leave
      "Arrival-to-tenancy-end latency (simulated steps)"

let churn_replay_command ~seed (c : churn_cfg) =
  Arc_report.Replay.(
    render ~exe:"dune exec bin/soak.exe --"
      ([
         int "--replay" seed;
         float "--churn" c.rate;
         int "--gate" c.gate_capacity;
         int "--lanes" c.lanes;
         int "--room" c.waiting_room;
         float "--crash-frac" c.crash_frac;
       ]
      @ cfg_args c.base))

let run_churn ?(on_run = fun (_ : churn_report) -> ()) (c : churn_cfg) :
    churn_outcome =
  check_churn_cfg c;
  let join = Arc_util.Histogram.create () in
  let leave = Arc_util.Histogram.create () in
  let o =
    ref
      {
        cruns = 0;
        arrivals = 0;
        admitted = 0;
        backpressured = 0;
        departed = 0;
        evicted = 0;
        abandoned = 0;
        lane_crashes = 0;
        writes = 0;
        reads_fresh = 0;
        stale_serves = 0;
        exhausted = 0;
        refused_serves = 0;
        serves_checked = 0;
        high_water_max = 0;
        live_buffers_max = 0;
        join;
        leave;
        churn_violations = [];
      }
  in
  for k = 1 to c.base.runs do
    let seed = derive_seed c.base k in
    match run_churn_one ~seed ~join ~leave c with
    | exception e ->
      o :=
        {
          !o with
          cruns = !o.cruns + 1;
          churn_violations =
            (seed, Printf.sprintf "run raised: %s" (Printexc.to_string e))
            :: !o.churn_violations;
        }
    | r ->
      on_run r;
      let a = !o in
      o :=
        {
          a with
          cruns = a.cruns + 1;
          arrivals = a.arrivals + r.arrivals;
          admitted = a.admitted + r.cadmitted;
          backpressured = a.backpressured + r.cbackpressured;
          departed = a.departed + r.cdeparted;
          evicted = a.evicted + r.cevicted;
          abandoned = a.abandoned + r.abandoned;
          lane_crashes = a.lane_crashes + r.lane_crashes;
          writes = a.writes + r.cwrites;
          reads_fresh = a.reads_fresh + Outcomes.ok_count r.coutcomes;
          stale_serves = a.stale_serves + Outcomes.stale_count r.coutcomes;
          exhausted = a.exhausted + Outcomes.exhausted_count r.coutcomes;
          refused_serves = a.refused_serves + r.refused_serves;
          serves_checked = a.serves_checked + r.cserves_checked;
          high_water_max = max a.high_water_max r.chigh_water;
          live_buffers_max = max a.live_buffers_max r.live_buffers_max;
          churn_violations =
            List.map (fun m -> (seed, m)) r.cviolations @ a.churn_violations;
        }
  done;
  !o

(* {1 Negative control: churn without the gate}

   Two arms, each an ungated copy of something the campaign does only
   through the gate; the control is {e convicted} — the desired
   outcome — when the damage is caught.

   Arm 1 mints a {e fresh} reader handle per arrival over a live
   identity, exactly the idiom the gate's persistent handles exist to
   prevent.  A fresh handle believes the identity's presence pin is on
   slot 0 (I1); when the pin actually sits elsewhere, the handle's
   first slow read releases a unit slot 0 never owed and leaks the
   unit the identity had pinned — per-slot over-release (r_end >
   r_start), a pinned-forever slot, eventually a writer with no free
   slot.  Arm 2 plants the packed count at the saturation boundary and
   performs one raw ungated read: the [Saturated] raise reaches the
   caller — precisely what gate-fronted churn reports as a violation
   if it ever happens.  Arm 2's conviction is deterministic, so the
   control convicts on every invocation; arm 1's evidence (ledger or
   checker) convicts on virtually every seed and is reported when
   found. *)

let churn_control ~seed (c : churn_cfg) : bool * string list =
  check_churn_cfg c;
  let cfg = c.base in
  let size = cfg.size_words in
  let reasons = ref [] in
  let convict fmt = Printf.ksprintf (fun m -> reasons := m :: !reasons) fmt in
  (* Arm 1: fresh-handle-per-arrival churn, no gate. *)
  (let strategy = Strategy.random ~seed:(seed + 1) in
   let init = Array.make size 0 in
   P.stamp init ~seq:0 ~len:size;
   let dreg = D.create ~readers:c.gate_capacity ~capacity:size ~init in
   let torn = ref 0 in
   let anomalies = ref [] in
   let threads = c.lanes + 1 in
   let recorder = History.Recorder.create ~threads ~capacity:20_000 in
   let writer () =
     try
       let src = Array.make size 0 in
       let seq = ref 0 in
       while Sched.now () < cfg.max_steps do
         incr seq;
         P.stamp src ~seq:!seq ~len:size;
         let invoked = Sched.now () in
         D.write dreg ~src ~len:size;
         History.Recorder.record recorder ~thread:0 History.Write ~seq:!seq
           ~invoked ~returned:(Sched.now ());
         Sched.cede ()
       done
     with Failure msg -> anomalies := msg :: !anomalies
   in
   let lane k () =
     let thread = k + 1 in
     let lrng = Splitmix.of_int ((seed * 131) + k) in
     try
       while Sched.now () < cfg.max_steps do
         if Splitmix.float lrng < c.rate then begin
           (* The bypass: a brand-new handle for a pooled identity,
              minted mid-run. *)
           let rd = D.reader dreg (Splitmix.int lrng c.gate_capacity) in
           for _ = 1 to 1 + Splitmix.int lrng 4 do
             if Sched.now () < cfg.max_steps then begin
               let invoked = Sched.now () in
               let s =
                 D.read_with rd ~f:(fun buf len ->
                     match P.validate buf ~len with
                     | Ok s -> s
                     | Error _ ->
                       incr torn;
                       P.decode_seq buf)
               in
               History.Recorder.record recorder ~thread History.Read ~seq:s
                 ~invoked ~returned:(Sched.now ())
             end
           done
         end
         else Sched.cede ()
       done
     with
     | Arc_core.Register_intf.Saturated _ ->
       anomalies := "Saturated escaped to a churn lane" :: !anomalies
     | Failure msg -> anomalies := msg :: !anomalies
   in
   let fibers =
     Array.init threads (fun i -> if i = 0 then writer else lane (i - 1))
   in
   Mem.install Fault_plan.empty;
   let backstop = (cfg.max_steps * 3) + 100_000 in
   let sched_outcome = Sched.run ~max_steps:backstop ~strategy fibers in
   ignore (Mem.drain ());
   List.iter (fun m -> convict "%s" m) !anomalies;
   if !torn > 0 then convict "%d torn snapshots" !torn;
   if sched_outcome.Sched.unfinished > 0 then
     convict "%d fibers never finished" sched_outcome.Sched.unfinished;
   (match Checker.check (History.Recorder.history recorder) with
   | Ok _ -> ()
   | Error v -> convict "%s" (Format.asprintf "%a" Checker.pp_violation v));
   let slack = D.Debug.presence_slack dreg in
   if slack <> 0 then convict "presence-ledger slack %d (must be 0: no crashes)" slack;
   for j = 0 to D.Debug.slots dreg - 1 do
     if D.Debug.r_end dreg j > D.Debug.r_start dreg j then
       convict "slot %d over-released (r_end %d > r_start %d)" j
         (D.Debug.r_end dreg j) (D.Debug.r_start dreg j)
   done;
   if not (D.Debug.free_slot_exists dreg) then
     convict "no free slot among the N+2 (pins leaked by fresh handles)");
  (* Arm 2: ungated read at the saturation boundary — deterministic. *)
  (let init = Array.make size 0 in
   P.stamp init ~seq:0 ~len:size;
   Mem.install Fault_plan.empty;
   let dreg = D.create ~readers:2 ~capacity:size ~init in
   let rd = D.reader dreg 0 in
   let src = Array.make size 0 in
   P.stamp src ~seq:1 ~len:size;
   D.write dreg ~src ~len:size;
   (* The handle still points at slot 0; the next read takes the slow
      path and its subscribe increments straight past the bound. *)
   D.Debug.force_current dreg
     (Packed.make
        ~index:(Packed.index (D.Debug.current dreg))
        ~count:Packed.max_readers);
   (match D.read_with rd ~f:(fun _ len -> len) with
   | exception Arc_core.Register_intf.Saturated _ ->
     convict "ungated read let Saturated escape to the caller"
   | _ -> ());
   ignore (Mem.drain ()));
  (!reasons <> [], List.rev !reasons)
