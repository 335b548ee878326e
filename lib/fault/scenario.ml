(* The micro-scenario catalogue's runner: schedule proofs and sampled
   fault runs judged by one code path.

   Every entry is [writes] stamped writes racing [readers] readers of
   [reads] validated reads each, on a register over {!Campaign.Mem},
   run by the {!Fibers} bodies.  An explored row ([Exhaustive] or
   [Prefix]) enumerates the schedules with
   {!Arc_vsched.Explore.exhaustive} under the entry's fault plan
   (usually empty), on one fixture reset per schedule; a sampled row
   ([Seeds {runs; steps}]) runs [runs] derived seeds through
   {!Campaign.Make.run}, each a random sound fault plan (or the
   entry's own) and a random schedule until simulated time [steps].
   Either way each run is judged as {!Campaign.judge} judges it: torn
   views, liveness, {!Arc_trace.Checker.check_crash} (the full Checker
   pass, crash-aware when the writer dies) and, for ARC subjects,
   {!Campaign.arc_audit}'s presence ledger and Lemma 4.1 free slot. *)

module Sched = Arc_vsched.Sched
module Explore = Arc_vsched.Explore

module type REGISTER =
  Arc_core.Register_intf.S
    with type Mem.atomic = Campaign.Mem.atomic
     and type Mem.buffer = Campaign.Mem.buffer

module type ARC =
  Arc_core.Arc.BASE
    with type Mem.atomic = Campaign.Mem.atomic
     and type Mem.buffer = Campaign.Mem.buffer

(* The register under test, with its white-box audit and the writer's
   epilogue after its one write (its result counts as acting when
   positive). *)
type subject =
  | Subject : {
      register : (module REGISTER with type t = 't);
      audit : ('t -> crashed_readers:int -> writer_crashed:bool -> string list) option;
      epilogue : ('t -> int) option;
    }
      -> subject

let register (type t) (module R : REGISTER with type t = t) =
  Subject { register = (module R); audit = None; epilogue = None }

let arc (type t) ?epilogue (module R : ARC with type t = t) =
  let module Probes = Campaign.Arc_probes (R) in
  Subject { register = (module R); audit = Some Probes.audit; epilogue }

type verdict = Clean | Convicted

type budget =
  | Exhaustive
  | Prefix of int  (** the first [n] DFS schedules *)
  | Seeds of { runs : int; steps : int }
      (** [runs] sampled runs, each a derived seed's {!Campaign} plan
          and random strategy until simulated time [steps] *)

type entry = {
  name : string;
  subject : subject;
  words : int;  (** payload words *)
  writes : int;  (** the writer's writes, in an explored row *)
  readers : int;
  reads : int;  (** back-to-back reads by each reader, in an explored row *)
  plan : Fault_plan.t;  (** a sampled row draws one per seed when empty *)
  expect : verdict;
  control : string option;  (** the entry that must convict this protocol's shortcut *)
  budget : budget;
}

(* A sampled run stops at its deadline, not after a count of
   operations, and has no epilogue: a [Seeds] row takes none of
   [writes], [reads] or an epilogue. *)
let entry ?writes ?(readers = 1) ?reads ?(plan = Fault_plan.empty) ?(expect = Clean)
    ?control ?(budget = Exhaustive) name subject ~words =
  (match (budget, subject) with
  | Seeds _, Subject { epilogue = Some _; _ } ->
    invalid_arg (name ^ ": a Seeds row runs no epilogue")
  | Seeds _, _ when writes <> None || reads <> None ->
    invalid_arg (name ^ ": a Seeds row counts no writes or reads")
  | _ -> ());
  let writes = Option.value writes ~default:1 and reads = Option.value reads ~default:1 in
  { name; subject; words; writes; readers; reads; plan; expect; control; budget }

type outcome = {
  exhausted : bool;  (** every schedule of an explored row ran *)
  verdict : verdict;
  acted : int option;  (** schedules in which the epilogue acted, if any *)
  tally : Campaign.outcome;
}

(* Sampled rows derive their run seeds from arc-check's base seed. *)
let seed_base = 2024

let campaign_cfg e ~schedules ~steps =
  {
    Campaign.default with
    readers = e.readers;
    size_words = e.words;
    max_steps = steps;
    seed = seed_base;
    schedules;
  }

let own_plan e = if Fault_plan.size e.plan = 0 then None else Some e.plan

(* Every schedule of an explored row runs on one fixture, reset per
   schedule. *)
let explore e ~max_schedules =
  let (Subject { register = (module R); audit; epilogue }) = e.subject in
  let module W = Fibers.Make (R) in
  let o = Campaign.tally () and acted = ref 0 in
  let threads = e.readers + 1 in
  let fx =
    Fibers.create ~record:(max e.writes e.reads) ~size:e.words ~max_steps:max_int
      ~threads ()
  in
  let scenario () =
    Fibers.reset fx;
    Campaign.Mem.install e.plan;
    let reg = R.create ~readers:e.readers ~capacity:e.words ~init:fx.init in
    (* A crash-stop in the epilogue ends the writer as one in a write
       does. *)
    let writer =
      Fibers.guard fx ~thread:0 @@ fun () ->
      W.writer fx ~stop:(Ops e.writes) reg ();
      Option.iter
        (fun f -> if (not fx.crashed.(0)) && f reg > 0 then incr acted)
        epilogue
    in
    let check () =
      let stats = Campaign.Mem.drain () in
      let result = Campaign.result fx ~unfinished:0 stats in
      let audit_errors =
        match audit with
        | None -> []
        | Some f ->
          f reg
            ~crashed_readers:(Campaign.crashed_from fx.crashed 1)
            ~writer_crashed:fx.crashed.(0)
      in
      Campaign.add o (Some result)
        (Campaign.judge ~seed:o.schedules_run ~result ~audit_errors)
    in
    ( Array.init threads (fun i ->
          if i = 0 then writer else W.reader fx ~stop:(Ops e.reads) reg ~id:(i - 1)),
      check )
  in
  let x = Explore.exhaustive ~max_schedules ~scenario () in
  (x.Explore.exhausted, Option.map (fun _ -> !acted) epilogue, o)

let run e =
  let exhausted, acted, tally =
    match e.budget with
    | Exhaustive -> explore e ~max_schedules:max_int
    | Prefix n -> explore e ~max_schedules:n
    | Seeds { runs; steps } ->
      let (Subject { register = (module R); audit; _ }) = e.subject in
      let module C = Campaign.Make (R) in
      (false, None, C.run ?audit ?plan:(own_plan e) (campaign_cfg e ~schedules:runs ~steps))
  in
  { exhausted; verdict = (if tally.convicted > 0 then Convicted else Clean); acted; tally }

(* Re-run one sampled run of the [Seeds] row [e] from the derived seed
   a violation line printed: its plan, result and violations. *)
let replay e ~seed =
  let steps =
    match e.budget with
    | Seeds { steps; _ } -> steps
    | Exhaustive | Prefix _ -> invalid_arg (e.name ^ ": only a Seeds row replays a seed")
  in
  let (Subject { register = (module R); audit; _ }) = e.subject in
  let module C = Campaign.Make (R) in
  C.run_seed ?audit ?plan:(own_plan e) ~seed (campaign_cfg e ~schedules:1 ~steps)
