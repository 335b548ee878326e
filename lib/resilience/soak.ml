(* Chaos soak for the supervised register service, in two modes over
   one run skeleton.

   The failover mode composes writer succession with reader sessions
   — one {!Election} seat on heap cells (heartbeat lease, term-voted
   campaign, epoch-fenced writer handles) and {!Session} reads — over
   a fault-injecting simulated register ([Arc] over
   {!Arc_fault.Campaign.Mem}) and soaks it through many seeded
   randomized scenarios:

   - fiber 0 is the incumbent writer: it wins term 1 and may crash at
     a random access, crash mid-copy (torn slot), or turn {e zombie} —
     pause between writes for several leases (a GC/OS pause), get
     deposed, and have its post-fence write rejected by [Fenced_out];
   - fiber 1 is the standby: it polls the seat's lease and, once it
     has expired, campaigns with the register's crash recovery as the
     takeover; on [Won] it counts the failover, the quarantined slots
     and the fence time, learns the last published value through a
     spare reader handle, and continues the write sequence (it can be
     stalled to model a monitoring outage);
   - fibers 2.. are reader sessions with no admission guard: every
     read is a live, wait-free ARC read that also refreshes the
     session's snapshot (one extra blit through the faulty substrate
     per read), so crashes, stalls and tears land inside reads too.

   The churn mode (below) keeps one writer and churns short-lived
   readers through an admission gate instead; its revoked tickets are
   what drive the sessions' bounded-stale serves.

   Both modes share the fixture, the [write_next] writer step, the
   fiber run and the common judge: no torn snapshots, crash-aware
   atomicity with the promotion time as the fence
   ({!Checker.check_crash} [?fence]), every stale serve within the
   declared staleness bound ({!Checker.check_bounded_staleness}), no
   fiber left unfinished, and the ARC presence-ledger audit on the
   quiescent final state.  Each mode adds its own verdicts, and every
   run yields one ['m report]: common fields plus the mode's part.  A
   campaign returns its reports; the summary, the metrics and the
   binary's heartbeat are sums over them.  A failing run carries its
   seed; {!replay_command} renders the command line that reproduces
   it.

   Fault soundness.  Mid-write writer stalls are drawn strictly below
   half the lease, so a live writer is never deposed while it sits
   between the epoch-guard load and the publish exchange — the
   fence's residual window ({!Election}) — matching the lease
   discipline documented in DESIGN.md §6c.  Zombie pauses, which do
   exceed the lease, are taken {e between} writes, where the entry
   epoch check fences the returnee before it touches the register.  The
   {!unfenced_control} shows the same handoff without fencing is
   convicted by the checker — the negative control that proves the
   fence is load-bearing. *)

module Splitmix = Arc_util.Splitmix
module Outcomes = Arc_obs.Obs.Outcomes
module Sched = Arc_vsched.Sched
module Strategy = Arc_vsched.Strategy
module History = Arc_trace.History
module Checker = Arc_trace.Checker
module Fault_plan = Arc_fault.Fault_plan
module Campaign = Arc_fault.Campaign
module Fibers = Arc_fault.Fibers
module Mem = Campaign.Mem
module R = Arc_core.Arc.Make (Mem)
module R_probes = Campaign.Arc_probes (R)
module E = Election.Make (R)
module F = Fibers.Make (R)
module P = Arc_workload.Payload.Make (Mem)

module S = Session.Make (R)

type cfg = {
  runs : int;
  seed : int;
  readers : int;
  size_words : int;
  max_steps : int;  (** per run; fibers self-terminate past this *)
  lease : int;  (** writer lease, in simulated steps *)
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
    max_crash_readers = 2;
  }

(* Configuration checks reject what no run could use, naming the flag
   that set it. *)
let require ok flag v need =
  if not ok then invalid_arg (Printf.sprintf "%s %s: need %s" flag v need)

let at_least flag v min =
  require (v >= min) flag (string_of_int v) (Printf.sprintf ">= %d" min)

let check_cfg cfg =
  at_least "--readers" cfg.readers 1;
  at_least "--size" cfg.size_words 1;
  at_least "--lease" cfg.lease 400

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

type scenario = { fate : fate; plan : Fault_plan.t }

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
  (* Standby stalls model a supervisor outage: failover is delayed
     while readers keep reading the last published value. *)
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
  { fate; plan = !plan }

(* {1 The run skeleton}

   Both modes run on the {!Fibers} fixture and writer step and
   {!Campaign}'s fiber run, and pass the same common judge below; each keeps
   only its fiber bodies, scenario draw and extra verdicts.  Fibers 0
   and 1 are the writer side (incumbent and standby, or writer and
   janitor); fibers 2.. read. *)

let fixture ~threads cfg =
  Fibers.create ~record:20_000 ~size:cfg.size_words ~max_steps:cfg.max_steps
    ~threads ()

let strategy seed = Strategy.random ~seed:(seed + 1)

let serve_stale (fx : Fibers.t) ~thread =
  Option.iter (fun seq ->
      fx.stale_serves <- { Checker.thread; seq; at = Sched.now () } :: fx.stale_serves)

(* {1 Reports} *)

type 'm stats = {
  writes : int;  (** recorded writes, both writer fibers *)
  outcomes : Outcomes.t;  (** merged across sessions *)
  crashes : int;  (** crash-stopped reader fibers *)
  torn : int;
  serves_checked : int;  (** stale serves checked against the bound *)
  crash_outcome : Checker.crash_outcome option;
  mode : 'm;
}

type 'm report = {
  seed : int;
  violations : string list;
  stats : 'm stats option;  (** [None] when the run raised *)
}

(* The common judge: torn snapshots, recorder overflow, unfinished
   fibers, crash-aware atomicity with [fence] as the promotion time,
   the stale serves against [stale_bound] (a mode that serves none
   passes none), and the quiescent presence ledger and Lemma 4.1's
   free slot ({!Campaign.arc_audit}, skipped when the incumbent
   crashed mid-operation).  The mode's [extra] verdicts follow. *)
let judge ~seed (fx : Fibers.t) ~unfinished ?fence ?stale_bound ~probes
    ~extra mode =
  let violations = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> violations := m :: !violations) fmt in
  if fx.torn > 0 then fail "%d torn snapshots" fx.torn;
  if Fibers.dropped fx > 0 then
    fail "recorder overflow (%d events dropped)"
      (Fibers.dropped fx);
  if unfinished > 0 then
    fail "%d fibers never finished (hang/livelock inside the backstop)"
      unfinished;
  let check = Campaign.check_crash ?fence fx in
  (match check with
  | Ok _ -> ()
  | Error v -> fail "%s" (Format.asprintf "%a" Checker.pp_violation v));
  let stale_check =
    match stale_bound with
    | None -> Ok 0
    | Some bound ->
      Checker.check_bounded_staleness
        (Fibers.history fx)
        ~bound (List.rev fx.stale_serves)
  in
  (match stale_check with
  | Ok _ -> ()
  | Error v -> fail "%s" (Format.asprintf "%a" Checker.pp_staleness_violation v));
  let crashes = Campaign.crashed_from fx.crashed 2 in
  let ledger =
    Campaign.arc_audit probes ~crashed_readers:crashes
      ~writer_crashed:fx.crashed.(0)
  in
  {
    seed;
    violations = List.rev_append !violations (List.rev_append ledger extra);
    stats =
      Some
        {
          writes = fx.ops.(0) + fx.ops.(1);
          outcomes = fx.outcomes;
          crashes;
          torn = fx.torn;
          serves_checked = (match stale_check with Ok n -> n | Error _ -> 0);
          crash_outcome = (match check with Ok (_, o) -> Some o | Error _ -> None);
          mode;
        };
  }

(* {1 Campaign totals}

   The closing summary, [--metrics] and the binary's live heartbeat
   are all sums over the reports so far, through these functions. *)

let fold op f rs =
  List.fold_left
    (fun n r -> match r.stats with Some s -> op n (f s) | None -> n)
    0 rs

let sum f rs = fold ( + ) f rs
let count p rs = sum (fun s -> Bool.to_int (p s)) rs
let clean rs = List.for_all (fun r -> r.violations = []) rs
let failing rs = List.length (List.filter (fun r -> r.violations <> []) rs)

let violations rs =
  List.concat_map (fun r -> List.map (fun m -> (r.seed, m)) r.violations) rs

let verdict rs =
  match violations rs with
  | [] -> "CLEAN"
  | vs -> Printf.sprintf "%d VIOLATIONS" (List.length vs)

let writes rs = sum (fun s -> s.writes) rs
let crashes rs = sum (fun s -> s.crashes) rs
let fresh rs = sum (fun s -> Outcomes.ok_count s.outcomes) rs
let stale rs = sum (fun s -> Outcomes.stale_count s.outcomes) rs
let serves_checked rs = sum (fun s -> s.serves_checked) rs

let derive_seed (cfg : cfg) k = Arc_report.Driver.derive_seed cfg.seed k

(* Runs 1 .. [cfg.runs] of [run_one], a raised run kept as a report
   with no stats. *)
let campaign ?on_run (cfg : cfg) run_one =
  Arc_report.Driver.campaign ?on_run
    ~raised:(fun ~seed msg -> { seed; violations = [ msg ]; stats = None })
    ~base:cfg.seed ~runs:cfg.runs run_one

(* The flags both campaigns' replay commands end with. *)
let cfg_args cfg =
  Arc_report.Replay.
    [
      int "--readers" cfg.readers;
      int "--size" cfg.size_words;
      int "--steps" cfg.max_steps;
      int "--lease" cfg.lease;
    ]

(* {1 Failover mode} *)

type failover = {
  fate : string;
  plan : Fault_plan.t;
  standby_writes : int;
  failovers : int;
  quarantined : int;  (** slots retired by crash recovery at promote *)
  fenced_writes : int;
  writer_crashed : bool;
  stalls : int;
  tears : int;
}

let run_one ~seed (cfg : cfg) : failover report =
  check_cfg cfg;
  let rng = Splitmix.of_int seed in
  let scen = scenario_of rng cfg in
  let fx = fixture ~threads:(cfg.readers + 2) cfg in
  let size = cfg.size_words in
  (* Identities: [0, readers) for the sessions, [readers] the standby's
     spare; two more stay unclaimed as over-provisioned slots — a
     writer crash between its publish (W2) and freeze (W3) leaks the
     superseded slot's accounting, and the spares keep Lemma 4.1's
     free-slot guarantee strict even then (both unclaimed units pin
     the initial slot together, so each spare is a net extra slot). *)
  (* One seat; both fibers campaign as candidate 0, the incumbent for
     term 1 and each standby promotion for the next. *)
  let seat =
    E.create ~readers:(cfg.readers + 3) ~capacity:size ~init:fx.init ~now:Sched.now
      ~lease:cfg.lease
  in
  let failovers = ref 0 and quarantined = ref 0 and last_fence = ref None in
  let fenced_writes = ref 0 (* writes aborted by the fence *) in
  let sessions = Array.make cfg.readers None in

  (* Write from [start] until the run ends or the fence deposes [w]:
     the aborted attempt published nothing. *)
  let write_until_deposed w ~thread ~start ~pause =
    let src = Array.make size 0 and seq = ref start in
    try
      while Sched.now () < cfg.max_steps do
        pause !seq;
        Fibers.write_next fx ~thread ~src ~seq (fun src -> E.write w ~src ~len:size);
        E.heartbeat w;
        Sched.cede ()
      done
    with Election.Fenced_out _ -> incr fenced_writes
  in

  let incumbent () =
    try
      let w =
        match E.campaign seat ~candidate:0 with
        | E.Won { writer; _ } -> writer
        | E.Lost { term; _ } ->
          failwith
            (Printf.sprintf "Soak: incumbent lost the initial election (term %d)" term)
      in
      write_until_deposed w ~thread:0 ~start:0 ~pause:(fun seq ->
          match scen.fate with
          | Zombie { after; pause } when seq = after -> Sched.sleep pause
          | _ -> ())
    with Fault_plan.Crashed -> fx.crashed.(0) <- true
  in

  (* The standby's takeover is the register's own crash recovery: the
     deposed writer may have died mid-publish, and the slot its journal
     names must be quarantined before this successor's first free-slot
     search can hand it out with readers still on it. *)
  let rec standby () =
    if Sched.now () < cfg.max_steps then
      match
        if E.expired seat then
          Some
            (E.campaign seat ~candidate:0 ~takeover:(fun () ->
                 R.recover_crash (E.register seat)))
        else None
      with
      | Some (E.Won { writer = w; recovered; at; _ }) ->
        incr failovers;
        quarantined := !quarantined + recovered;
        last_fence := Some at;
        (* Learn where the write sequence stands through the spare
           reader handle; a pending write that published before the
           fence is picked up here and continued from. *)
        let rd = E.reader seat cfg.readers in
        let last = R.read_with rd ~f:(fun buf _len -> P.decode_seq buf) in
        write_until_deposed w ~thread:1 ~start:last ~pause:ignore
      | Some (E.Lost _) | None ->
        (* Lease still held, or another candidate won this suspicion:
           keep monitoring. *)
        Sched.cede ();
        standby ()
  in

  let reader id () =
    let thread = id + 2 in
    try
      let session = S.create ~now:Sched.now ~capacity:size (E.reader seat id) in
      sessions.(id) <- Some session;
      while Sched.now () < cfg.max_steps do
        let invoked = Sched.now () in
        (match S.read_with session ~f:(F.validated fx) with
        | S.Fresh s -> Fibers.record_read fx ~thread ~invoked s
        | S.Stale _ | S.Backpressured _ ->
          assert false (* no admission guard: every read is live *));
        fx.ops.(thread) <- fx.ops.(thread) + 1;
        Sched.cede ()
      done
    with Fault_plan.Crashed -> fx.crashed.(thread) <- true
  in

  let unfinished, faults =
    Campaign.run_fibers fx ~strategy:(strategy seed) scen.plan
      (Array.init (cfg.readers + 2) (fun i ->
           if i = 0 then incumbent else if i = 1 then standby else reader (i - 2)))
  in
  (* Sessions count in per-domain Obs cells; after the vsched run every
     fiber is quiescent, so the merge is exact. *)
  Array.iter
    (Option.iter (fun s -> Outcomes.merge_into ~src:(S.outcomes s) ~dst:fx.outcomes))
    sessions;
  let starved =
    List.filter_map
      (fun id ->
        if fx.crashed.(id + 2) || fx.ops.(id + 2) > 0 then None
        else Some (Printf.sprintf "surviving reader %d completed no operation" id))
      (List.init cfg.readers Fun.id)
  in
  judge ~seed fx ~unfinished ?fence:!last_fence
    ~probes:(R_probes.probes (E.register seat))
    ~extra:starved
    {
      fate = fate_name scen.fate;
      plan = scen.plan;
      standby_writes = fx.ops.(1);
      failovers = !failovers;
      quarantined = !quarantined;
      fenced_writes = !fenced_writes;
      writer_crashed = fx.crashed.(0);
      stalls = faults.Arc_fault.Fault_mem.stalls;
      tears = List.length faults.Arc_fault.Fault_mem.tears;
    }

let run ?on_run (cfg : cfg) =
  check_cfg cfg;
  campaign ?on_run cfg (fun ~seed -> run_one ~seed cfg)

let failover f rs = sum (fun s -> f s.mode) rs
let failovers rs = failover (fun m -> m.failovers) rs
let fenced_writes rs = failover (fun m -> m.fenced_writes) rs
let quarantined rs = failover (fun m -> m.quarantined) rs
let tears rs = failover (fun m -> m.tears) rs
let writer_crashes rs = count (fun s -> s.mode.writer_crashed) rs
let zombies rs = count (fun s -> s.mode.fate = "zombie") rs

(* Runs where a promoted standby went on to write. *)
let handoffs rs =
  count (fun s -> s.mode.failovers > 0 && s.mode.standby_writes > 0) rs

let pending_resolved o rs = count (fun s -> s.crash_outcome = Some o) rs

let pp_summary ppf (rs : failover report list) =
  Format.fprintf ppf
    "@[<v>%d runs: %d writes, %d fresh reads@,\
     %d failovers (%d completed handoffs, %d slots quarantined), %d fenced \
     writes; %d writer crashes, %d zombies, %d reader crashes, %d stalls, \
     %d tears@,\
     pending writes: %d vanished, %d took effect — %s@]"
    (List.length rs) (writes rs) (fresh rs) (failovers rs) (handoffs rs)
    (quarantined rs) (fenced_writes rs) (writer_crashes rs) (zombies rs) (crashes rs)
    (failover (fun m -> m.stalls) rs)
    (tears rs)
    (pending_resolved Checker.Vanished rs)
    (pending_resolved Checker.Took_effect rs)
    (verdict rs)

(* Campaign counters for the soak binary's --metrics flag. *)
let metrics (rs : failover report list) =
  let open Arc_obs.Obs in
  [
    counter "soak_runs_total" ~help:"Completed soak runs" (List.length rs);
    counter "soak_writes_total" ~help:"Writes across all runs" (writes rs);
    counter "soak_reads_fresh_total" ~help:"Fresh session reads" (fresh rs);
    counter "soak_failovers_total" ~help:"Standby promotions" (failovers rs);
    counter "soak_handoffs_total" ~help:"Promotions followed by standby writes"
      (handoffs rs);
    counter "soak_quarantined_slots_total"
      ~help:"Slots retired by successor crash recovery" (quarantined rs);
    counter "soak_fenced_writes_total" ~help:"Writes through the epoch fence"
      (fenced_writes rs);
    counter "soak_writer_crashes_total" ~help:"Injected writer crashes"
      (writer_crashes rs);
    counter "soak_reader_crashes_total" ~help:"Injected reader crashes"
      (crashes rs);
    counter "soak_zombie_runs_total" ~help:"Runs with a zombie incumbent"
      (zombies rs);
    counter "soak_tears_total"
      ~help:"Injected mid-copy writer tears (readers must never serve one)"
      (tears rs);
    counter "soak_violations_total" ~help:"Checker violations (must stay 0)"
      (List.length (violations rs));
  ]

let replay_command ~seed cfg =
  Arc_report.Replay.(
    render ~exe:"dune exec bin/soak.exe --" (int "--replay" seed :: cfg_args cfg))

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
  let size = cfg.size_words in
  let fx = fixture ~threads:(cfg.readers + 2) cfg in
  let reg = R.create ~readers:(cfg.readers + 3) ~capacity:size ~init:fx.init in
  let anomalies = ref [] in
  let hb = ref 0 in
  let pause_after = 3 in
  let writer thread () =
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
        let src = Array.make size 0 and seq = ref start_seq in
        while Sched.now () < cfg.max_steps do
          if thread = 0 && !seq = pause_after then Sched.sleep (3 * cfg.lease);
          Fibers.write_next fx ~thread ~src ~seq (fun src ->
              R.write reg ~src ~len:size);
          hb := Sched.now ();
          Sched.cede ()
        done
    with Failure msg -> anomalies := msg :: !anomalies
  in
  let reader id () =
    let rd = R.reader reg id in
    while Sched.now () < cfg.max_steps do
      let invoked = Sched.now () in
      Fibers.record_read fx ~thread:(id + 2) ~invoked
        (R.read_with rd ~f:(F.validated fx));
      Sched.cede ()
    done
  in
  let unfinished, _ =
    Campaign.run_fibers fx ~strategy:(strategy seed) Fault_plan.empty
      (Array.init (cfg.readers + 2) (fun i -> if i < 2 then writer i else reader (i - 2)))
  in
  let reasons = ref !anomalies in
  if fx.torn > 0 then reasons := Printf.sprintf "%d torn snapshots" fx.torn :: !reasons;
  if unfinished > 0 then
    reasons := Printf.sprintf "%d fibers never finished" unfinished :: !reasons;
  (match Checker.check (Fibers.history fx) with
  | Ok _ -> ()
  | Error v -> reasons := Format.asprintf "%a" Checker.pp_violation v :: !reasons);
  (!reasons <> [], !reasons)

(* {1 Churn mode (ISSUE 8)}

   The failover mode holds its reader population fixed for a run — the
   paper's model.  The churn mode is the opposite regime: a small
   admission gate (capacity N) in front of ARC with elastic slot
   storage ({!Arc_core.Arc_dynamic}, crash-tolerant storage reclaim
   on), and an unbounded stream of short-lived readers arriving on
   [lanes] concurrent lanes, each tenancy admitted through the gate,
   reading through a session over the gate's {e persistent} handle —
   its admission guard refuses once the ticket is revoked, and the
   session serves its bounded-stale snapshot instead — then departing — or abandoning its ticket
   (modeling kill -9), leaving the lease sweep to evict it.  Fiber 1
   is the janitor running that sweep.

   Judged by the common judge — atomicity, bounded staleness, presence
   ledger (slack exactly 0: no lane crashes mid-read) — plus the
   gate's own books: ticket conservation (admitted − departed −
   evicted = live at quiescence), the N + 2 live-buffer bound against
   an arrival population ≫ N, and the headline guarantee that {e no}
   [Saturated] raise escapes past the gate to churn code. *)

module D = Arc_core.Arc_dynamic.Make (Mem)
module D_probes = Campaign.Arc_probes (D)
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
  deadline : int;  (** waiting-room budget of an arrival, in simulated steps *)
  max_stale : int;  (** oldest snapshot a session may serve, in steps *)
}

let default_churn =
  {
    base = { default with readers = 4 };
    rate = 0.02;
    gate_capacity = 4;
    lanes = 6;
    waiting_room = 2;
    crash_frac = 0.3;
    deadline = 1_500;
    max_stale = 6_000;
  }

(* The declared bounded-staleness contract, in writes.  A serve at time
   [t] returns a snapshot captured by a live read invoked at
   [t - max_stale - D] at the earliest, where [D] bounds that read's
   own duration (~3 passes over the snapshot).  Every write costs at
   least [size_words] simulated steps (its content copy alone), so the
   writes that completed in the window number at most
   [(max_stale + D) / size_words] plus small slack for the in-flight
   write at each end — rounded up into a margin of 10. *)
let staleness_bound c = (c.max_stale / c.base.size_words) + 10

let check_churn_cfg c =
  check_cfg c.base;
  let g = Printf.sprintf "%g" in
  require (c.rate > 0. && c.rate <= 1.) "--churn" (g c.rate) "0 < RATE <= 1";
  at_least "--gate" c.gate_capacity 1;
  at_least "--lanes" c.lanes 1;
  at_least "--room" c.waiting_room 0;
  require
    (c.crash_frac >= 0. && c.crash_frac <= 1.)
    "--crash-frac" (g c.crash_frac) "0 <= F <= 1";
  at_least "--deadline" c.deadline 1;
  at_least "--max-stale" c.max_stale 0

type churn = {
  arrivals : int;
  admitted : int;
  backpressured : int;
  departed : int;
  evicted : int;
  abandoned : int;  (** tenancies that deliberately skipped depart *)
  refused_serves : int;  (** session reads refused by the admission guard *)
  high_water : int;
  live_buffers_max : int;
  join : Arc_util.Histogram.t;  (** arrival -> admitted, simulated steps *)
  leave : Arc_util.Histogram.t;  (** arrival -> tenancy end, simulated steps *)
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

let run_churn_one ~seed (c : churn_cfg) : churn report =
  check_churn_cfg c;
  let cfg = c.base in
  let rng = Splitmix.of_int seed in
  let plan = churn_plan rng c in
  let fx = fixture ~threads:(c.lanes + 2) cfg in
  let size = cfg.size_words in
  let dreg = D.create ~readers:c.gate_capacity ~capacity:size ~init:fx.init in
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
  let join = Arc_util.Histogram.create () in
  let leave = Arc_util.Histogram.create () in
  let arrivals = ref 0 in
  let abandoned = ref 0 in
  let refused_serves = ref 0 in
  let escaped = ref [] in
  let live_buffers_max = ref 0 in
  let late_frees = ref 0 in

  let writer () =
    try
      let src = Array.make size 0 and seq = ref 0 in
      while Sched.now () < cfg.max_steps do
        Fibers.write_next fx ~thread:0 ~src ~seq (fun src ->
            D.write dreg ~src ~len:size);
        (* Depart-triggered reclaim runs here — storage revocation is
           the writer's side of the protocol, so the gate's
           [on_release] only raises a flag. *)
        if !reclaim_requested then begin
          reclaim_requested := false;
          ignore (D.reclaim_stale dreg ~lease:reclaim_lease)
        end;
        Sched.cede ()
      done
    with Fault_plan.Crashed -> fx.crashed.(0) <- true
  in

  let janitor () =
    while Sched.now () < cfg.max_steps do
      Sched.sleep (max 1 (cfg.lease / 2));
      ignore (DGate.sweep gate);
      live_buffers_max := max !live_buffers_max (D.live_buffers dreg);
      Sched.cede ()
    done
  in

  let lane k () =
    let thread = k + 2 in
    let lrng = Splitmix.of_int ((seed * 31) + 7_777 + k) in
    try
      while Sched.now () < cfg.max_steps do
        if Splitmix.float lrng < c.rate then begin
          incr arrivals;
          let t0 = Sched.now () in
          match DGate.admit_wait ~deadline:(t0 + c.deadline) gate with
          | Arc_core.Register_intf.Backpressured bp ->
            (* Come back later, as told — jittered by the verdict. *)
            Sched.sleep bp.Arc_core.Register_intf.retry_after
          | Arc_core.Register_intf.Admitted ticket ->
            Arc_util.Histogram.record join (Sched.now () - t0);
            let session =
              DS.create ~admission:(DGate.guard gate ticket)
                ~max_stale:c.max_stale ~now:Sched.now ~capacity:size
                (DGate.reader gate ticket)
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
               (match DS.read_with session ~f:(F.validated fx) with
               | DS.Fresh s -> Fibers.record_read fx ~thread ~invoked s
               | DS.Stale { value = s; _ } -> serve_stale fx ~thread s
               | DS.Backpressured _ ->
                 (* Our lease was swept out from under us (a stall made
                    us look dead).  Stop using the identity at once. *)
                 incr refused_serves;
                 evicted_underfoot := true);
               fx.ops.(thread) <- fx.ops.(thread) + 1;
               if not (DGate.renew gate ticket) then evicted_underfoot := true;
               Sched.cede ()
             done);
            Outcomes.merge_into ~src:(DS.outcomes session) ~dst:fx.outcomes;
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
    | Fault_plan.Crashed -> fx.crashed.(thread) <- true
    | Arc_core.Register_intf.Saturated msg ->
      (* The headline guarantee: gate-fronted churn must never see
         this.  Recorded as a violation, not re-raised, so the run
         still quiesces and reports. *)
      escaped := msg :: !escaped
  in

  let unfinished, _ =
    Campaign.run_fibers fx ~strategy:(strategy seed) plan
      (Array.init (c.lanes + 2) (fun i ->
           if i = 0 then writer else if i = 1 then janitor else lane (i - 2)))
  in
  let pool = DGate.pool gate in
  let ev = Admission.Pool.events pool in
  let admitted = Arc_obs.Obs.Admission.admitted_count ev in
  let departed = Arc_obs.Obs.Admission.departed_count ev in
  let evicted = Arc_obs.Obs.Admission.evicted_count ev in
  let high_water = Admission.Pool.high_water pool in
  live_buffers_max := max !live_buffers_max (D.live_buffers dreg);
  let extra = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> extra := m :: !extra) fmt in
  List.iter (fun m -> fail "Saturated escaped the admission gate: %s" m) !escaped;
  (* Ticket conservation at quiescence. *)
  if admitted - departed - evicted <> Admission.Pool.live pool then
    fail "ticket books don't balance: %d admitted - %d departed - %d evicted <> %d live"
      admitted departed evicted (Admission.Pool.live pool);
  if high_water > c.gate_capacity then
    fail "high water %d exceeds gate capacity %d" high_water c.gate_capacity;
  (* The N+2 claim under unbounded arrivals. *)
  if !live_buffers_max > c.gate_capacity + 2 then
    fail "%d live buffers exceed the N+2 bound (N = %d)" !live_buffers_max
      c.gate_capacity;
  if !late_frees > 0 then
    fail "%d late departs freed an evicted ticket (generation CAS failed open)"
      !late_frees;
  (* Non-vacuity: the campaign must actually churn. *)
  if !arrivals = 0 then fail "no arrivals (vacuous run)";
  if admitted = 0 then fail "no admissions (vacuous run)";
  if fx.ops.(0) = 0 then fail "writer made no writes";
  judge ~seed fx ~unfinished ~stale_bound:(staleness_bound c)
    ~probes:(D_probes.probes dreg)
    ~extra:(List.rev !extra)
    {
      arrivals = !arrivals;
      admitted;
      backpressured = Arc_obs.Obs.Admission.backpressured_count ev;
      departed;
      evicted;
      abandoned = !abandoned;
      refused_serves = !refused_serves;
      high_water;
      live_buffers_max = !live_buffers_max;
      join;
      leave;
    }

let run_churn ?on_run (c : churn_cfg) =
  check_churn_cfg c;
  campaign ?on_run c.base (fun ~seed -> run_churn_one ~seed c)

let churn f rs = sum (fun s -> f s.mode) rs
let arrivals rs = churn (fun m -> m.arrivals) rs
let admitted rs = churn (fun m -> m.admitted) rs
let backpressured rs = churn (fun m -> m.backpressured) rs
let departed rs = churn (fun m -> m.departed) rs
let evicted rs = churn (fun m -> m.evicted) rs
let abandoned rs = churn (fun m -> m.abandoned) rs
let refused_serves rs = churn (fun m -> m.refused_serves) rs
let live_buffers_max rs = fold max (fun s -> s.mode.live_buffers_max) rs

let histogram f rs =
  let h = Arc_util.Histogram.create () in
  List.iter
    (fun r ->
      Option.iter (fun s -> Arc_util.Histogram.merge_into ~src:(f s.mode) ~dst:h) r.stats)
    rs;
  h

let pp_churn_summary ppf (rs : churn report list) =
  let pct h bp =
    Option.fold ~none:"—" ~some:string_of_int (Arc_util.Histogram.percentile_opt h bp)
  in
  let join = histogram (fun m -> m.join) rs
  and leave = histogram (fun m -> m.leave) rs in
  Format.fprintf ppf
    "@[<v>%d churn runs: %d arrivals -> %d admitted, %d backpressured; %d \
     departed, %d evicted (%d abandoned, %d lane crashes)@,\
     %d writes, %d fresh reads, %d stale serves, %d refused serves; high \
     water %d, live buffers max %d@,\
     join p50/p99: %s/%s steps, tenancy p50/p99: %s/%s steps — %s@]"
    (List.length rs) (arrivals rs) (admitted rs) (backpressured rs)
    (departed rs) (evicted rs) (abandoned rs) (crashes rs) (writes rs)
    (fresh rs) (stale rs) (refused_serves rs)
    (fold max (fun s -> s.mode.high_water) rs)
    (live_buffers_max rs) (pct join 5000) (pct join 9900) (pct leave 5000)
    (pct leave 9900) (verdict rs)

let churn_metrics (rs : churn report list) =
  let open Arc_obs.Obs in
  [
    counter "soak_churn_runs_total" ~help:"Completed churn runs" (List.length rs);
    counter "soak_churn_arrivals_total" ~help:"Reader arrivals offered to the gate"
      (arrivals rs);
    counter "soak_churn_writes_total" ~help:"Writes across all churn runs"
      (writes rs);
    counter "soak_churn_reads_fresh_total" ~help:"Live session reads"
      (fresh rs);
    counter "soak_churn_stale_serves_total"
      ~help:"Refused reads served from the bounded-stale snapshot" (stale rs);
    counter "arc_admission_admitted_total" ~help:"Admissions granted" (admitted rs);
    counter "arc_admission_backpressured_total"
      ~help:"Arrivals refused with a typed verdict" (backpressured rs);
    counter "arc_admission_departed_total" ~help:"Tickets explicitly departed"
      (departed rs);
    counter "arc_admission_evicted_total" ~help:"Tickets reclaimed by lease sweep"
      (evicted rs);
    counter "soak_churn_abandoned_total"
      ~help:"Tenancies that walked away without departing" (abandoned rs);
    counter "soak_churn_lane_crashes_total" ~help:"Crash-stopped churn lanes"
      (crashes rs);
    counter "soak_churn_refused_serves_total"
      ~help:"Session reads refused after a lease sweep revoked the ticket"
      (refused_serves rs);
    gauge "soak_churn_live_buffers_max"
      ~help:"Peak live-buffer count (bound: gate capacity + 2)"
      (float_of_int (live_buffers_max rs));
    counter "soak_churn_violations_total" ~help:"Checker violations (must stay 0)"
      (List.length (violations rs));
  ]
  @ quantiles "soak_churn_join_steps"
      ~help:"Arrival-to-admission latency (simulated steps)"
      (histogram (fun m -> m.join) rs) [ 5000; 9900 ]
  @ quantiles "soak_churn_tenancy_steps"
      ~help:"Arrival-to-tenancy-end latency (simulated steps)"
      (histogram (fun m -> m.leave) rs) [ 5000; 9900 ]

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
         int "--deadline" c.deadline;
         int "--max-stale" c.max_stale;
       ]
      @ cfg_args c.base))

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
  (let fx = fixture ~threads:(c.lanes + 1) cfg in
   let dreg = D.create ~readers:c.gate_capacity ~capacity:size ~init:fx.init in
   let anomalies = ref [] in
   let writer () =
     try
       let src = Array.make size 0 and seq = ref 0 in
       while Sched.now () < cfg.max_steps do
         Fibers.write_next fx ~thread:0 ~src ~seq (fun src ->
             D.write dreg ~src ~len:size);
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
               Fibers.record_read fx ~thread ~invoked
                 (D.read_with rd ~f:(F.validated fx))
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
   let unfinished, _ =
     Campaign.run_fibers fx ~strategy:(strategy seed) Fault_plan.empty
       (Array.init (c.lanes + 1) (fun i -> if i = 0 then writer else lane (i - 1)))
   in
   List.iter (fun m -> convict "%s" m) !anomalies;
   if fx.torn > 0 then convict "%d torn snapshots" fx.torn;
   if unfinished > 0 then convict "%d fibers never finished" unfinished;
   (match Checker.check (Fibers.history fx) with
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
