(* The micro-scenario catalogue's runner: exhaustive schedule proofs
   judged by the same code as the sampled campaigns.

   Every entry is one stamped write racing [reads] validated reads of
   one reader, on a register over {!Campaign.Mem} under the entry's
   fault plan (usually empty).  {!run} enumerates the schedules with
   {!Arc_vsched.Explore.exhaustive} and judges each one's recorded
   history as {!Campaign} judges a sampled run: torn snapshots,
   liveness, {!Campaign.check_crash} (the full {!Arc_trace.Checker}
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
type budget = Exhaustive | Prefix of int  (** the first [n] DFS schedules *)

type entry = {
  name : string;
  subject : subject;
  words : int;  (** payload words *)
  reads : int;  (** back-to-back reads by the one reader *)
  plan : Fault_plan.t;
  expect : verdict;
  control : string option;  (** the entry that must convict this protocol's shortcut *)
  budget : budget;
}

let entry ?(reads = 1) ?(plan = Fault_plan.empty) ?(expect = Clean) ?control
    ?(budget = Exhaustive) name subject ~words =
  { name; subject; words; reads; plan; expect; control; budget }

type outcome = {
  schedules : int;
  exhausted : bool;
  verdict : verdict;
  convicted : int;  (** schedules with at least one violation *)
  first_violation : (int * string) option;  (** (schedule, description) *)
  faulted : int;  (** schedules in which a planned fault fired *)
  acted : int option;  (** schedules in which the epilogue acted, if any *)
}

let run e =
  let (Subject { register = (module R); audit; epilogue }) = e.subject in
  let schedule = ref 0 and convicted = ref 0 and first = ref None in
  let faulted = ref 0 and acted = ref 0 in
  (* Explore drives the schedule; the fixture's strategy is unused. *)
  let unused = Arc_vsched.Strategy.round_robin () in
  let scenario () =
    let fx =
      Campaign.fixture ~size:e.words ~max_steps:max_int ~threads:2
        ~capacity:(e.reads + 1) unused
    in
    Campaign.Mem.install e.plan;
    let reg = R.create ~readers:1 ~capacity:e.words ~init:fx.init in
    let writer () =
      try
        let src = Array.make e.words 0 in
        Campaign.write_next fx ~thread:0 ~src ~seq:(ref 0) (fun src ->
            R.write reg ~src ~len:e.words);
        Option.iter (fun f -> if f reg > 0 then incr acted) epilogue
      with Fault_plan.Crashed -> fx.crashed.(0) <- true
    in
    (* A torn view is counted and never served.  Unlike
       [Campaign.validated] it is not re-read for a seq to record: that
       read would be one more scheduling point. *)
    let read buf len =
      match Campaign.P.validate buf ~len with
      | Ok seq -> Some seq
      | Error _ ->
        fx.torn <- fx.torn + 1;
        None
    in
    let reader () =
      try
        let rd = R.reader reg 0 in
        for _ = 1 to e.reads do
          let invoked = Sched.now () in
          Option.iter
            (Campaign.record_read fx ~thread:1 ~invoked)
            (R.read_with rd ~f:read);
          fx.ops.(1) <- fx.ops.(1) + 1
        done
      with Fault_plan.Crashed -> fx.crashed.(1) <- true
    in
    let check () =
      let stats = Campaign.Mem.drain () in
      if stats <> Fault_mem.zero_stats then incr faulted;
      let result = Campaign.result fx ~unfinished:0 stats in
      let audit_errors =
        match audit with
        | None -> []
        | Some f ->
          f reg
            ~crashed_readers:(Campaign.crashed_from fx.crashed 1)
            ~writer_crashed:fx.crashed.(0)
      in
      (match Campaign.judge ~seed:!schedule ~result ~audit_errors with
      | [] -> ()
      | v :: _ ->
        incr convicted;
        if !first = None then first := Some v);
      incr schedule
    in
    ([| writer; reader |], check)
  in
  let max_schedules =
    match e.budget with Exhaustive -> max_int | Prefix n -> n
  in
  let o = Explore.exhaustive ~max_schedules ~scenario () in
  {
    schedules = o.Explore.schedules;
    exhausted = o.Explore.exhausted;
    verdict = (if !convicted > 0 then Convicted else Clean);
    convicted = !convicted;
    first_violation = !first;
    faulted = !faulted;
    acted = Option.map (fun _ -> !acted) epilogue;
  }
