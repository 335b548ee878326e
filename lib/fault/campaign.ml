(* Bounded fault-exploration campaigns (ISSUE 2).

   A campaign drives a register algorithm, instantiated over the
   fault-injecting simulated memory {!Mem}, through many seeded
   (schedule, fault-plan) pairs and checks every run three ways:

   - snapshot integrity: no torn payloads observed by any reader;
   - crash-aware atomicity: the recorded history passes
     {!Arc_trace.Checker.check_crash}, with the writer's pending write
     (if it crashed mid-operation) allowed to vanish or take effect;
   - liveness: every non-crashed fiber ran to completion inside the
     step budget (the simulated analog of the real runner's watchdog),
     and every surviving reader completed at least one operation —
     crash-stop peers must not be able to block the wait-free paths;

   plus an optional register-specific invariant audit (for ARC: the
   presence-ledger slack bound and Lemma 4.1's free slot, see
   {!arc_audit} and {!Arc_probes}).

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

   Every vsched campaign run — this module's, and both modes of the
   chaos soak ({!Arc_resilience.Soak}) — builds one fixture, writes
   through [write_next], reads through [validated] into the recorder,
   and runs its fibers through [run_fibers].  Fiber 0 is the writer. *)

module P = Arc_workload.Payload.Make (Mem)

type fixture = {
  size : int;
  max_steps : int;  (** fibers self-terminate past this *)
  init : int array;  (** the stamped initial value, seq 0 *)
  strategy : Strategy.t;
  recorder : History.Recorder.recorder;
  crashed : bool array;  (** by fiber *)
  ops : int array;  (** completed operations, by fiber *)
  pending : (int * int) option array;  (** a write in flight, by fiber *)
  outcomes : Arc_obs.Obs.Outcomes.t;  (** session read outcomes, merged *)
  mutable torn : int;
  mutable stale_serves : Checker.stale_serve list;
}

let fixture ~size ~max_steps ~threads ~capacity strategy =
  let init = Array.make size 0 in
  P.stamp init ~seq:0 ~len:size;
  {
    size;
    max_steps;
    init;
    strategy;
    recorder = History.Recorder.create ~threads ~capacity;
    crashed = Array.make threads false;
    ops = Array.make threads 0;
    pending = Array.make threads None;
    outcomes = Arc_obs.Obs.Outcomes.create ();
    torn = 0;
    stale_serves = [];
  }

(* The read callback: a torn snapshot is counted, never served. *)
let validated fx buf len =
  match P.validate buf ~len with
  | Ok s -> s
  | Error _ ->
    fx.torn <- fx.torn + 1;
    P.decode_seq buf

let record_read fx ~thread ~invoked seq =
  History.Recorder.record fx.recorder ~thread History.Read ~seq ~invoked
    ~returned:(Sched.now ())

(* One writer step: stamp the next sequence number into [src], write it
   through [write], record it. *)
let write_next fx ~thread ~src ~seq write =
  incr seq;
  P.stamp src ~seq:!seq ~len:fx.size;
  let invoked = Sched.now () in
  fx.pending.(thread) <- Some (!seq, invoked);
  write src;
  History.Recorder.record fx.recorder ~thread History.Write ~seq:!seq ~invoked
    ~returned:(Sched.now ());
  fx.pending.(thread) <- None;
  fx.ops.(thread) <- fx.ops.(thread) + 1

(* Run [fibers] under [plan] to completion or the backstop; the number
   of fibers left unfinished (crashed fibers finish by catching
   [Crashed], so these hung or livelocked) and the fault tallies. *)
let run_fibers fx plan fibers =
  Mem.install plan;
  let backstop = (fx.max_steps * 3) + 100_000 in
  let o = Sched.run ~max_steps:backstop ~strategy:fx.strategy fibers in
  (o.Sched.unfinished, Mem.drain ())

(* Crash-stopped fibers from [first] on, of a by-fiber [crashed]. *)
let crashed_from crashed first =
  let n = ref 0 in
  Array.iteri (fun i c -> if i >= first && c then incr n) crashed;
  !n

(* The crash-aware atomicity check of [fx]'s history, with the
   writer's pending write when it crashed. *)
let check_crash ?fence fx =
  let pending_write = if fx.crashed.(0) then fx.pending.(0) else None in
  Checker.check_crash ?pending_write ?fence (History.Recorder.history fx.recorder)

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
  torn : int;
  reads : int;
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
let result (fx : fixture) ~unfinished stats : run_result =
  let starved = ref 0 in
  Array.iteri
    (fun i n -> if i > 0 && (not fx.crashed.(i)) && n = 0 then incr starved)
    fx.ops;
  {
    torn = fx.torn;
    reads = Array.fold_left ( + ) 0 fx.ops - fx.ops.(0);
    writes = fx.ops.(0);
    crashed = fx.crashed;
    unfinished;
    starved = !starved;
    stats;
    check = check_crash fx;
    dropped_events = History.Recorder.dropped fx.recorder;
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

type outcome = {
  schedules_run : int;
  reader_crashes : int;
  writer_crashes : int;
  stalls : int;
  tears : int;
  reads_checked : int;
  vanished : int;
  took_effect : int;
  violations : (int * string) list;  (** (schedule seed, description) *)
}

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
    let size = cfg.size_words in
    let fx =
      fixture ~size ~max_steps:cfg.max_steps ~threads:(cfg.readers + 1)
        ~capacity:12_000 strategy
    in
    let reg = R.create ~readers:cfg.readers ~capacity:size ~init:fx.init in
    let writer () =
      try
        let src = Array.make size 0 and seq = ref 0 in
        while Sched.now () < cfg.max_steps do
          write_next fx ~thread:0 ~src ~seq (fun src -> R.write reg ~src ~len:size);
          Sched.cede ()
        done
      with Fault_plan.Crashed -> fx.crashed.(0) <- true
    in
    let reader id () =
      let thread = id + 1 in
      try
        let rd = R.reader reg id in
        while Sched.now () < cfg.max_steps do
          let invoked = Sched.now () in
          record_read fx ~thread ~invoked (R.read_with rd ~f:(validated fx));
          fx.ops.(thread) <- fx.ops.(thread) + 1;
          Sched.cede ()
        done
      with Fault_plan.Crashed -> fx.crashed.(thread) <- true
    in
    let unfinished, stats =
      run_fibers fx plan
        (Array.init (cfg.readers + 1) (fun i ->
             if i = 0 then writer else reader (i - 1)))
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
     [seed = Arc_report.Driver.derive_seed cfg.seed schedule].
     Callers (bin/check --replay-seed) use it to re-execute a failing
     schedule from the seed a violation line printed. *)
  let run_seed ?audit ~seed (cfg : cfg) :
      Fault_plan.t * run_result * (int * string) list =
    let rng = Splitmix.of_int seed in
    let plan = random_plan rng cfg in
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

  let run ?audit (cfg : cfg) : outcome =
    let runs =
      Arc_report.Driver.campaign ~base:cfg.seed ~runs:cfg.schedules
        ~raised:(fun ~seed msg -> (None, [ (seed, msg) ]))
        (fun ~seed ->
          let _plan, result, violations = run_seed ?audit ~seed cfg in
          (Some result, violations))
    in
    let sum f =
      List.fold_left
        (fun n (r, _) -> match r with Some r -> n + f r | None -> n)
        0 runs
    in
    let check_is o (r : run_result) =
      Bool.to_int (match r.check with Ok (_, c) -> c = o | Error _ -> false)
    in
    {
      schedules_run = List.length runs;
      reader_crashes = sum (fun r -> crashed_from r.crashed 1);
      writer_crashes = sum (fun r -> Bool.to_int r.crashed.(0));
      stalls = sum (fun r -> r.stats.Fault_mem.stalls);
      tears = sum (fun r -> List.length r.stats.Fault_mem.tears);
      reads_checked =
        sum (fun r ->
            match r.check with
            | Ok (c, _) -> c.Checker.reads_checked
            | Error _ -> 0);
      vanished = sum (check_is Checker.Vanished);
      took_effect = sum (check_is Checker.Took_effect);
      (* Newest run first, each run's violations newest first. *)
      violations = List.concat_map snd (List.rev runs);
    }
end
