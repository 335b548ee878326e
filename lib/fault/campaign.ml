(* Bounded fault-exploration campaigns.

   A campaign drives a register algorithm, instantiated over the
   fault-injecting simulated memory {!Mem}, through many seeded
   (schedule, fault-plan) pairs.  Every run's fibers are the
   {!Fibers} writer and reader bodies, and every run is checked three
   ways:

   - snapshot integrity: no torn view observed by any reader (a torn
     view is counted and never recorded);
   - crash-aware atomicity: the recorded history passes
     {!Arc_trace.Checker.check_crash}, with the writer's pending write
     (if it crashed mid-operation) allowed to vanish or take effect;
   - liveness: every non-crashed fiber ran to completion inside the
     step budget (the simulated analog of the real runner's watchdog),
     and every surviving reader completed at least one operation —
     crash-stop peers must not be able to block the wait-free paths;

   plus an optional register-specific invariant audit (for ARC: the
   presence-ledger slack bound and Lemma 4.1's free slot, see
   {!arc_audit} and {!Arc_probes}).  The same judgement convicts or
   clears every row of the micro-scenario catalogue ({!Scenario}),
   whose [Seeds] rows — arc-check --faults' campaigns among them — are
   this module's {!Make.run}.

   This module deliberately has no [.mli]: callers instantiate
   [A.Make (Campaign.Mem)] themselves and pass the result to
   {!Make}, keeping white-box access (e.g. [Arc.Debug]) to wire the
   audit probes. *)

module Splitmix = Arc_util.Splitmix
module Sched = Arc_vsched.Sched
module Strategy = Arc_vsched.Strategy
module History = Arc_trace.History
module Checker = Arc_trace.Checker

module Mem = Fault_mem.Make (Arc_vsched.Sim_mem)

type cfg = {
  readers : int;
  size_words : int;
  max_steps : int;  (** per schedule; fibers self-terminate past this *)
  seed : int;
  schedules : int;  (** (schedule, fault-plan) pairs to explore *)
  max_crash_readers : int;  (** crash up to this many readers per run *)
  stall_threads : bool;  (** inject bounded stalls (writer and readers) *)
  crash_writer : bool;  (** allow writer crash, incl. mid-copy tears *)
}

let default =
  {
    readers = 3;
    size_words = 16;
    max_steps = 25_000;
    seed = 42;
    schedules = 100;
    max_crash_readers = 2;
    stall_threads = true;
    crash_writer = true;
  }

(* {1 The run skeleton}

   Every vsched campaign run — this module's, the catalogue's and both
   modes of the chaos soak ({!Arc_resilience.Soak}) — runs its fibers
   over one {!Fibers.t} fixture, under a fault plan, through
   [run_fibers].  Fiber 0 is the writer. *)

(* Run [fibers] under [plan] to completion or the backstop; the number
   of fibers left unfinished (crashed fibers finish by catching
   [Crashed], so these hung or livelocked) and the fault tallies. *)
let run_fibers fx ~strategy plan fibers =
  Mem.install plan;
  let o = Fibers.run fx ~strategy fibers in
  (o.Sched.unfinished, Mem.drain ())

(* Crash-stopped fibers from [first] on, of a by-fiber [crashed]. *)
let crashed_from crashed first =
  let n = ref 0 in
  Array.iteri (fun i c -> if i >= first && c then incr n) crashed;
  !n

(* The crash-aware atomicity check of [fx]'s history, with the
   writer's pending write when it crashed. *)
let check_crash ?fence (fx : Fibers.t) =
  let pending_write = if fx.crashed.(0) then fx.pending.(0) else None in
  Checker.check_crash ?pending_write ?fence (Fibers.history fx)

(* {1 Invariant probes} *)

type probes = {
  presence_slack : unit -> int;
      (** readers − (Σ_j (r_start j − r_end j) + count current) *)
  free_slot_exists : unit -> bool;
}

(* The ARC slot-accounting safety net under ≤ f crash-stop readers:
   each crashed reader either still holds its subscription (slack 0
   contribution) or died between release (R3) and re-subscribe (R4),
   in which case its presence vanished from the ledger entirely —
   so the quiescent ledger may undershoot the reader count by at most
   the number of crashed readers, and never overshoot it.  A negative
   slack means presence was double-counted (e.g. a lost release); a
   slack above [crashed_readers] means presence leaked out.  Lemma 4.1
   survives crashes: N readers pin at most N of the N+2 slots, so the
   writer always finds a free slot.  Both checks are quiescent-state
   statements, hence skipped when the writer itself crashed
   mid-operation (its half-done slot reset legitimately unbalances the
   ledger). *)
let arc_audit probes ~crashed_readers ~writer_crashed =
  if writer_crashed then []
  else begin
    let errs = ref [] in
    let slack = probes.presence_slack () in
    if slack < 0 || slack > crashed_readers then
      errs :=
        Printf.sprintf
          "presence-ledger slack %d outside [0, %d crashed readers]" slack
          crashed_readers
        :: !errs;
    if not (probes.free_slot_exists ()) then
      errs := "no free slot among the N+2 (Lemma 4.1 violated)" :: !errs;
    !errs
  end

(* The probes of any ARC variant (arc, arc-nohint, arc-dynamic), read
   from its white-box [Debug], and the audit over them. *)
module Arc_probes (R : Arc_core.Arc.BASE) = struct
  let probes reg =
    {
      presence_slack = (fun () -> R.Debug.presence_slack reg);
      free_slot_exists = (fun () -> R.Debug.free_slot_exists reg);
    }

  let audit reg = arc_audit (probes reg)
end

(* {1 Outcomes} *)

type run_result = {
  torn : int;  (** torn views, counted and never recorded *)
  reads : int;  (** completed reads, torn ones included *)
  recorded : int;  (** reads in the history *)
  writes : int;
  crashed : bool array;  (** by fiber id; [0] is the writer *)
  unfinished : int;  (** non-crashed fibers still alive at the backstop *)
  starved : int;  (** surviving readers that completed zero operations *)
  stats : Fault_mem.stats;
  check : (Checker.report * Checker.crash_outcome, Checker.violation) result;
  dropped_events : int;
}

(* The judgeable outcome of one finished run of [fx]: its tallies, the
   drained fault [stats] and the crash-aware check of its history. *)
let result (fx : Fibers.t) ~unfinished stats : run_result =
  let starved = ref 0 in
  Array.iteri
    (fun i n -> if i > 0 && (not fx.crashed.(i)) && n = 0 then incr starved)
    fx.ops;
  let h = Fibers.history fx in
  let pending_write = if fx.crashed.(0) then fx.pending.(0) else None in
  {
    torn = fx.torn;
    reads = Array.fold_left ( + ) 0 fx.ops - fx.ops.(0);
    recorded = List.length (History.reads h);
    writes = fx.ops.(0);
    crashed = Array.copy fx.crashed;
    unfinished;
    starved = !starved;
    stats;
    check = Checker.check_crash ?pending_write h;
    dropped_events = Fibers.dropped fx;
  }

let judge ~seed ~(result : run_result) ~audit_errors =
  let violations = ref [] in
  let fail fmt =
    Printf.ksprintf (fun msg -> violations := (seed, msg) :: !violations) fmt
  in
  if result.torn > 0 then fail "%d torn snapshots" result.torn;
  if result.dropped_events > 0 then
    fail "recorder overflow (%d events dropped)" result.dropped_events;
  if result.unfinished > 0 then
    fail "%d fibers never finished (hang/livelock inside the backstop)"
      result.unfinished;
  if result.starved > 0 then
    fail "%d surviving readers completed no operation" result.starved;
  (match result.check with
  | Ok _ -> ()
  | Error v -> fail "%s" (Format.asprintf "%a" Checker.pp_violation v));
  List.iter (fun msg -> fail "invariant: %s" msg) audit_errors;
  !violations

(* The tallies of a set of judged runs, added one run at a time. *)
type outcome = {
  mutable schedules_run : int;
  mutable convicted : int;  (** runs with at least one violation *)
  mutable faulted : int;  (** runs in which a planned fault fired *)
  mutable reader_crashes : int;
  mutable writer_crashes : int;
  mutable stalls : int;
  mutable tears : int;
  mutable torn : int;
  mutable reads : int;
  mutable recorded : int;
  mutable reads_checked : int;
  mutable vanished : int;
  mutable took_effect : int;
  mutable violations : (int * string) list;
      (** (schedule seed, description), newest run first *)
}

let tally () =
  {
    schedules_run = 0;
    convicted = 0;
    faulted = 0;
    reader_crashes = 0;
    writer_crashes = 0;
    stalls = 0;
    tears = 0;
    torn = 0;
    reads = 0;
    recorded = 0;
    reads_checked = 0;
    vanished = 0;
    took_effect = 0;
    violations = [];
  }

(* Add one run ([None] if it raised) and its violations to [o]. *)
let add o (r : run_result option) violations =
  o.schedules_run <- o.schedules_run + 1;
  if violations <> [] then o.convicted <- o.convicted + 1;
  o.violations <- violations @ o.violations;
  Option.iter
    (fun (r : run_result) ->
      if r.stats <> Fault_mem.zero_stats then o.faulted <- o.faulted + 1;
      o.reader_crashes <- o.reader_crashes + crashed_from r.crashed 1;
      o.writer_crashes <- o.writer_crashes + Bool.to_int r.crashed.(0);
      o.stalls <- o.stalls + r.stats.Fault_mem.stalls;
      o.tears <- o.tears + List.length r.stats.Fault_mem.tears;
      o.torn <- o.torn + r.torn;
      o.reads <- o.reads + r.reads;
      o.recorded <- o.recorded + r.recorded;
      match r.check with
      | Ok (c, outcome) ->
        o.reads_checked <- o.reads_checked + c.Checker.reads_checked;
        if outcome = Checker.Vanished then o.vanished <- o.vanished + 1;
        if outcome = Checker.Took_effect then o.took_effect <- o.took_effect + 1
      | Error _ -> ())
    r

let clean o = o.violations = []

(* [R] must be instantiated over {!Mem} (the constraint is by type
   equality, which a register over the bare [Sim_mem] would also
   satisfy — but then no fault would ever fire, and the campaign's
   non-vacuity assertions in the callers would catch it). *)
module Make
    (R : Arc_core.Register_intf.S
           with type Mem.atomic = Mem.atomic
            and type Mem.buffer = Mem.buffer) =
struct
  module W = Fibers.Make (R)

  (* Run one (plan, strategy) pair to completion and judge it.  The
     register is returned alongside so callers can run white-box
     audits on its quiescent final state. *)
  let run_plan ~plan ~strategy (cfg : cfg) : run_result * R.t =
    if cfg.readers < 1 then
      invalid_arg
        (Printf.sprintf "Campaign.run_plan: readers = %d (need >= 1)" cfg.readers);
    if cfg.size_words < 1 then
      invalid_arg
        (Printf.sprintf "Campaign.run_plan: size_words = %d (need >= 1)"
           cfg.size_words);
    let fx =
      Fibers.create ~record:12_000 ~size:cfg.size_words ~max_steps:cfg.max_steps
        ~threads:(cfg.readers + 1) ()
    in
    let reg = R.create ~readers:cfg.readers ~capacity:cfg.size_words ~init:fx.init in
    let stop = Fibers.Until cfg.max_steps in
    let unfinished, stats =
      run_fibers fx ~strategy plan
        (Array.init (cfg.readers + 1) (fun i ->
             if i = 0 then W.writer fx ~stop reg else W.reader fx ~stop reg ~id:(i - 1)))
    in
    (result fx ~unfinished stats, reg)

  (* Random sound-fault plan for one schedule: crash-stop readers,
     bounded stalls, and (optionally) a writer crash — possibly
     mid-copy, tearing the slot it was filling. *)
  let random_plan rng (cfg : cfg) =
    let plan = ref Fault_plan.empty in
    let ncrash =
      if cfg.max_crash_readers = 0 then 0
      else Splitmix.int rng (min cfg.max_crash_readers cfg.readers + 1)
    in
    let victims = Array.init cfg.readers (fun i -> i + 1) in
    Splitmix.shuffle rng victims;
    for v = 0 to ncrash - 1 do
      plan :=
        Fault_plan.crash ~fiber:victims.(v)
          ~at_access:(1 + Splitmix.int rng 80)
          !plan
    done;
    if cfg.stall_threads && Splitmix.bernoulli rng 0.5 then
      plan :=
        Fault_plan.stall ~fiber:0
          ~at_access:(1 + Splitmix.int rng 40)
          ~steps:(50 + Splitmix.int rng 450)
          !plan;
    if cfg.stall_threads && cfg.readers > 0 && Splitmix.bernoulli rng 0.5 then
      plan :=
        Fault_plan.stall
          ~fiber:(1 + Splitmix.int rng cfg.readers)
          ~at_access:(1 + Splitmix.int rng 60)
          ~steps:(50 + Splitmix.int rng 450)
          !plan;
    if cfg.crash_writer && Splitmix.bernoulli rng 0.3 then begin
      if Splitmix.bernoulli rng 0.5 then
        plan :=
          Fault_plan.tear ~fiber:0
            ~at_copy:(1 + Splitmix.int rng 4)
            ~at_word:(Splitmix.int rng cfg.size_words)
            ~silent:false !plan
      else
        plan :=
          Fault_plan.crash ~fiber:0 ~at_access:(1 + Splitmix.int rng 60) !plan
    end;
    !plan

  (* One campaign iteration, addressable by its derived seed: the
     exact (plan, strategy) pair [run] explores as
     [seed = Arc_report.Driver.derive_seed cfg.seed schedule] — the
     seed's random plan, or [plan] when given.  Callers (bin/check
     --replay-seed) use it to re-execute a failing schedule from the
     seed a violation line printed. *)
  let run_seed ?audit ?plan ~seed (cfg : cfg) :
      Fault_plan.t * run_result * (int * string) list =
    let rng = Splitmix.of_int seed in
    let drawn = random_plan rng cfg in
    let plan = Option.value plan ~default:drawn in
    let strategy = Strategy.random ~seed:(seed + 1) in
    let result, reg = run_plan ~plan ~strategy cfg in
    let audit_errors =
      match audit with
      | None -> []
      | Some f ->
        f reg ~crashed_readers:(crashed_from result.crashed 1)
          ~writer_crashed:result.crashed.(0)
    in
    (plan, result, judge ~seed ~result ~audit_errors)

  let run ?audit ?plan (cfg : cfg) : outcome =
    let o = tally () in
    ignore
      (Arc_report.Driver.campaign ~base:cfg.seed ~runs:cfg.schedules
         ~on_run:(fun (r, violations) -> add o r violations)
         ~raised:(fun ~seed msg -> (None, [ (seed, msg) ]))
         (fun ~seed ->
           let _plan, result, violations = run_seed ?audit ?plan ~seed cfg in
           (Some result, violations)));
    o
end
