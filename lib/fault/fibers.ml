(* One writer body and one reader body for every simulated run.

   The throughput runs ([Arc_harness.Sim_runner]), the fault campaigns
   ({!Campaign.Make.run_plan}), the micro-scenario catalogue
   ({!Scenario.run}) and the fabric runner's writers all run these
   bodies as {!Arc_vsched.Sched} fibers over one run state {!t}; the
   chaos soak's own fibers use its steps ({!write_next},
   {!Make.validated}).  Fiber 0 writes and fiber [id + 1] is reader
   [id].

   A body runs until its [stop]: [Ops n] operations (explored
   scenarios, whose fibers must end by themselves) or [Until t]
   (simulated time [t]).  A deadline body cedes after every operation,
   so even one that touches no shared memory advances time; an
   op-count body adds no scheduling point of its own.  A body stops at
   {!Fault_plan.Crashed} and marks its fiber crashed.

   The run's {!workload} decides what an operation does; only [Verify]
   validates and records, and only when recording is on.  One torn-view
   policy holds for every reader: a view that fails payload validation
   is counted in [torn], recorded nowhere, and costs no further read. *)

module History = Arc_trace.History
module Checker = Arc_trace.Checker
module Sched = Arc_vsched.Sched

(* Stamping fills a host array, whatever the memory. *)
module Host = Arc_workload.Payload.Make (Arc_vsched.Sim_mem)

type workload = Hold | Processing | Verify
type stop = Ops of int | Until of int

type t = {
  size : int;
  max_steps : int;  (** the run's deadline; the backstop derives from it *)
  workload : workload;
  init : int array;  (** the stamped initial value, seq 0 *)
  recorder : History.Recorder.recorder option;  (** [None]: recording off *)
  crashed : bool array;  (** by fiber *)
  ops : int array;  (** completed operations, by fiber *)
  pending : (int * int) option array;  (** a write in flight, by fiber *)
  mutable torn : int;
  outcomes : Arc_obs.Obs.Outcomes.t;  (** the soak's session outcomes, merged *)
  mutable stale_serves : Checker.stale_serve list;  (** the soak's, too *)
}

let create ?(workload = Verify) ?record ~size ~max_steps ~threads () =
  let init = Array.make size 0 in
  Host.stamp init ~seq:0 ~len:size;
  {
    size;
    max_steps;
    workload;
    init;
    recorder =
      Option.map (fun capacity -> History.Recorder.create ~threads ~capacity) record;
    crashed = Array.make threads false;
    ops = Array.make threads 0;
    pending = Array.make threads None;
    torn = 0;
    outcomes = Arc_obs.Obs.Outcomes.create ();
    stale_serves = [];
  }

(* Ready [fx] for another run of the same shape.  The soak's session
   outcomes are not reset: no reused fixture feeds them. *)
let reset fx =
  Option.iter History.Recorder.reset fx.recorder;
  Array.fill fx.crashed 0 (Array.length fx.crashed) false;
  Array.fill fx.ops 0 (Array.length fx.ops) 0;
  Array.fill fx.pending 0 (Array.length fx.pending) None;
  fx.torn <- 0;
  fx.stale_serves <- []

let history fx =
  History.Recorder.history (Option.get fx.recorder)

let dropped fx = Option.fold ~none:0 ~some:History.Recorder.dropped fx.recorder

let record fx ~thread kind ~seq ~invoked =
  Option.iter
    (fun r ->
      History.Recorder.record r ~thread kind ~seq ~invoked ~returned:(Sched.now ()))
    fx.recorder

(* A validated view's read, or none for a torn view. *)
let record_read fx ~thread ~invoked =
  Option.iter (fun seq -> record fx ~thread History.Read ~seq ~invoked)

let count fx thread = fx.ops.(thread) <- fx.ops.(thread) + 1

(* Run [fibers] to completion or the backstop: fibers self-terminate at
   their loop tops, but one of a non-wait-free algorithm can spin
   inside an operation (on a lock whose holder an unfair strategy never
   reschedules), and the backstop bounds that.  Clean runs never reach
   it. *)
let run fx ~strategy fibers =
  Sched.run ~max_steps:((fx.max_steps * 3) + 100_000) ~strategy fibers

(* [f] as fiber [thread], which a crash-stop ends. *)
let guard fx ~thread f () =
  try f () with Fault_plan.Crashed -> fx.crashed.(thread) <- true

(* [op] until [stop], as fiber [thread]; [op] counts itself. *)
let loop fx ~thread ~stop op =
  match stop with
  | Ops n ->
    while fx.ops.(thread) < n do
      op ()
    done
  | Until t ->
    while Sched.now () < t do
      op ();
      Sched.cede ()
    done

(* One stamped write: the next seq into [src], through [write], logged
   by [log] with its interval (a [Verify] run's recorder by default)
   and counted; [pending] holds it while it is in flight. *)
let write_next ?log fx ~thread ~src ~seq write =
  incr seq;
  Host.stamp src ~seq:!seq ~len:fx.size;
  let invoked = Sched.now () in
  fx.pending.(thread) <- Some (!seq, invoked);
  write src;
  (match log with
  | Some log -> log ~seq:!seq ~invoked ~returned:(Sched.now ())
  | None -> record fx ~thread History.Write ~seq:!seq ~invoked);
  fx.pending.(thread) <- None;
  count fx thread

(* The writer body.  Each operation writes the next of [targets]
   round-robin (a register is one target; a fabric writer's owned
   shards are its targets), each target with its own seq: none in
   [Hold] (the initial value is rewritten), the target's next one in
   [Processing] and [Verify], a [Verify] write logged as in
   {!write_next} with its target. *)
let writer ?(thread = 0) ?log fx ~stop targets =
  let src = Array.copy fx.init in
  let seqs = Array.map (fun _ -> ref 0) targets in
  let next = ref 0 in
  guard fx ~thread @@ fun () ->
  loop fx ~thread ~stop (fun () ->
      let k = !next in
      next := (k + 1) mod Array.length targets;
      let write = targets.(k) and seq = seqs.(k) in
      match fx.workload with
      | Hold ->
        write src;
        count fx thread
      | Processing ->
        incr seq;
        Host.stamp src ~seq:!seq ~len:fx.size;
        write src;
        count fx thread
      | Verify -> write_next ?log:(Option.map (fun log -> log k) log) fx ~thread ~src ~seq write)

module Make (R : Arc_core.Register_intf.S) = struct
  module P = Arc_workload.Payload.Make (R.Mem)

  (* The read callback of every validated read: the view's seq, or
     [None] for a torn view, counted. *)
  let validated fx buf len =
    match P.validate buf ~len with
    | Ok seq -> Some seq
    | Error _ ->
      fx.torn <- fx.torn + 1;
      None

  let writer fx ~stop reg =
    writer fx ~stop [| (fun src -> R.write reg ~src ~len:fx.size) |]

  (* The reader body of reader [id] (fiber [id + 1]); its handle is
     taken inside the fiber. *)
  let reader fx ~stop reg ~id =
    let thread = id + 1 in
    guard fx ~thread @@ fun () ->
    let rd = R.reader reg id in
    loop fx ~thread ~stop (fun () ->
        (match fx.workload with
        | Hold -> R.read_with rd ~f:(fun _buffer _len -> ())
        | Processing -> ignore (R.read_with rd ~f:(fun b len -> P.scan b ~len))
        | Verify ->
          let invoked = Sched.now () in
          record_read fx ~thread ~invoked (R.read_with rd ~f:(validated fx)));
        count fx thread)
end
