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
   {!arc_audit}).

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

let pp_outcome ppf o =
  Format.fprintf ppf
    "@[<h>%d schedules: %d reader crashes, %d writer crashes, %d stalls, %d \
     tears; %d reads checked (%d pending-write vanished, %d took effect) — %s@]"
    o.schedules_run o.reader_crashes o.writer_crashes o.stalls o.tears
    o.reads_checked o.vanished o.took_effect
    (if o.violations = [] then "CLEAN"
     else Printf.sprintf "%d VIOLATIONS" (List.length o.violations))

(* [R] must be instantiated over {!Mem} (the constraint is by type
   equality, which a register over the bare [Sim_mem] would also
   satisfy — but then no fault would ever fire, and the campaign's
   non-vacuity assertions in the callers would catch it). *)
module Make
    (R : Arc_core.Register_intf.S
           with type Mem.atomic = Mem.atomic
            and type Mem.buffer = Mem.buffer) =
struct
  module P = Arc_workload.Payload.Make (Mem)

  type out = { mutable ops : int; mutable torn : int }

  let reader_body ~reg ~id ~size ~max_steps ~recorder ~out ~crashed () =
    try
      let rd = R.reader reg id in
      while Sched.now () < max_steps do
        let invoked = Sched.now () in
        let seq =
          R.read_with rd ~f:(fun buffer len ->
              ignore size;
              match P.validate buffer ~len with
              | Ok seq -> seq
              | Error _ ->
                out.torn <- out.torn + 1;
                P.decode_seq buffer)
        in
        History.Recorder.record recorder ~thread:(id + 1) History.Read ~seq
          ~invoked ~returned:(Sched.now ());
        out.ops <- out.ops + 1;
        Sched.cede ()
      done
    with Fault_plan.Crashed -> crashed.(id + 1) <- true

  let writer_body ~reg ~size ~max_steps ~recorder ~out ~crashed ~pending () =
    try
      let src = Array.make size 0 in
      let seq = ref 0 in
      while Sched.now () < max_steps do
        incr seq;
        P.stamp src ~seq:!seq ~len:size;
        let invoked = Sched.now () in
        pending := Some (!seq, invoked);
        R.write reg ~src ~len:size;
        History.Recorder.record recorder ~thread:0 History.Write ~seq:!seq
          ~invoked ~returned:(Sched.now ());
        pending := None;
        out.ops <- out.ops + 1;
        Sched.cede ()
      done
    with Fault_plan.Crashed -> crashed.(0) <- true

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
    let init = Array.make size 0 in
    P.stamp init ~seq:0 ~len:size;
    let reg = R.create ~readers:cfg.readers ~capacity:size ~init in
    let recorder =
      History.Recorder.create ~threads:(cfg.readers + 1) ~capacity:12_000
    in
    let crashed = Array.make (cfg.readers + 1) false in
    let pending = ref None in
    let outs = Array.init (cfg.readers + 1) (fun _ -> { ops = 0; torn = 0 }) in
    let fibers =
      Array.init (cfg.readers + 1) (fun i ->
          if i = 0 then
            writer_body ~reg ~size ~max_steps:cfg.max_steps ~recorder
              ~out:outs.(0) ~crashed ~pending
          else
            reader_body ~reg ~id:(i - 1) ~size ~max_steps:cfg.max_steps
              ~recorder ~out:outs.(i) ~crashed)
    in
    Mem.install plan;
    let backstop = (cfg.max_steps * 3) + 100_000 in
    let sched_outcome = Sched.run ~max_steps:backstop ~strategy fibers in
    let stats = Mem.drain () in
    let torn = Array.fold_left (fun acc o -> acc + o.torn) 0 outs in
    let reads = ref 0 in
    Array.iteri (fun i o -> if i > 0 then reads := !reads + o.ops) outs;
    let starved = ref 0 in
    Array.iteri
      (fun i o -> if i > 0 && (not crashed.(i)) && o.ops = 0 then incr starved)
      outs;
    let unfinished =
      (* Crashed fibers finish by catching Crashed; anything left
         unfinished at the backstop is a genuine livelock/hang. *)
      sched_outcome.Sched.unfinished
    in
    let history = History.Recorder.history recorder in
    let pending_write = if crashed.(0) then !pending else None in
    let check = Checker.check_crash ?pending_write history in
    ( {
        torn;
        reads = !reads;
        writes = outs.(0).ops;
        crashed;
        unfinished;
        starved = !starved;
        stats;
        check;
        dropped_events = History.Recorder.dropped recorder;
      },
      reg )

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
    let crashed_readers =
      let n = ref 0 in
      Array.iteri (fun i c -> if i > 0 && c then incr n) result.crashed;
      !n
    in
    let audit_errors =
      match audit with
      | None -> []
      | Some f -> f reg ~crashed_readers ~writer_crashed:result.crashed.(0)
    in
    (plan, result, judge ~seed ~result ~audit_errors)

  let run ?audit (cfg : cfg) : outcome =
    let acc =
      ref
        {
          schedules_run = 0;
          reader_crashes = 0;
          writer_crashes = 0;
          stalls = 0;
          tears = 0;
          reads_checked = 0;
          vanished = 0;
          took_effect = 0;
          violations = [];
        }
    in
    for schedule = 1 to cfg.schedules do
      let seed = Arc_report.Driver.derive_seed cfg.seed schedule in
      match run_seed ?audit ~seed cfg with
      | exception Fault_plan.Crashed ->
        (* a Crashed escaping the fiber wrappers is a harness bug *)
        acc :=
          { !acc with violations = (seed, "Crashed escaped a fiber") :: !acc.violations }
      | exception e ->
        acc :=
          {
            !acc with
            schedules_run = !acc.schedules_run + 1;
            violations =
              (seed, Printf.sprintf "run raised: %s" (Printexc.to_string e))
              :: !acc.violations;
          }
      | _plan, result, violations ->
        let crashed_readers =
          let n = ref 0 in
          Array.iteri (fun i c -> if i > 0 && c then incr n) result.crashed;
          !n
        in
        let o = !acc in
        acc :=
          {
            schedules_run = o.schedules_run + 1;
            reader_crashes = o.reader_crashes + crashed_readers;
            writer_crashes =
              (o.writer_crashes + if result.crashed.(0) then 1 else 0);
            stalls = o.stalls + result.stats.Fault_mem.stalls;
            tears = o.tears + List.length result.stats.Fault_mem.tears;
            reads_checked =
              (o.reads_checked
              +
              match result.check with
              | Ok (r, _) -> r.Checker.reads_checked
              | Error _ -> 0);
            vanished =
              (o.vanished
              +
              match result.check with
              | Ok (_, Checker.Vanished) -> 1
              | _ -> 0);
            took_effect =
              (o.took_effect
              +
              match result.check with
              | Ok (_, Checker.Took_effect) -> 1
              | _ -> 0);
            violations = violations @ o.violations;
          }
    done;
    !acc
end
