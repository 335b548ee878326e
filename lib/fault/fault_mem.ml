module Sched = Arc_vsched.Sched

type stats = {
  crashes : (int * int) list;  (** (fiber, access index at crash) *)
  tears : (int * int) list;  (** (fiber, words completed before the tear) *)
  stalls : int;
  drops : int;
  cas_lies : int;
}

let zero_stats = { crashes = []; tears = []; stalls = 0; drops = 0; cas_lies = 0 }

module Make (M : Arc_mem.Mem_intf.S) = struct
  let name = "fault(" ^ M.name ^ ")"

  (* Per-fiber access counters, one row per class plus the total. *)
  type counters = {
    mutable total : int;
    mutable loads : int;
    mutable stores : int;
    mutable rmws : int;
    mutable bulks : int;
  }

  type injector = {
    mutable pending : Fault_plan.event list;
    counters : (int, counters) Hashtbl.t;
    mutable stats : stats;
  }

  (* One injector per instantiation; runs are single-domain and
     sequential (install / run / drain), matching how Sim_mem treats
     its own global knobs. *)
  let inj = { pending = []; counters = Hashtbl.create 16; stats = zero_stats }

  (* Fault identity for code running OUTSIDE the virtual scheduler: a
     real OS process has no vsched fiber, so without this every access
     it makes is invisible to the injector.  A harness that needs to
     fault real-process code (the crash campaign's split-vote negative
     control) declares an ambient fiber id; plans address it like any
     fiber.  Scheduler-delivered actions ([Stall]) must not appear in
     ambient plans — there is no scheduler to sleep on. *)
  let ambient = ref None
  let set_ambient_fiber f = ambient := f

  let install plan =
    inj.pending <- Fault_plan.events plan;
    Hashtbl.reset inj.counters;
    inj.stats <- zero_stats

  let drain () =
    let s = inj.stats in
    inj.pending <- [];
    Hashtbl.reset inj.counters;
    inj.stats <- zero_stats;
    s

  let counters_for fiber =
    match Hashtbl.find_opt inj.counters fiber with
    | Some c -> c
    | None ->
      let c = { total = 0; loads = 0; stores = 0; rmws = 0; bulks = 0 } in
      Hashtbl.add inj.counters fiber c;
      c

  let class_count c (cls : Fault_plan.op_class) =
    match cls with
    | `Load -> c.loads
    | `Store -> c.stores
    | `Rmw -> c.rmws
    | `Bulk -> c.bulks

  let matches fiber c (cls : Fault_plan.op_class) (p : Fault_plan.point) =
    p.Fault_plan.fiber = fiber
    &&
    match p.Fault_plan.kind with
    | `Any -> p.Fault_plan.nth = c.total
    | #Fault_plan.op_class as k -> k = cls && p.Fault_plan.nth = class_count c k

  (* Runs at a crash, before [Crashed] is raised.  A real process sets
     it to SIGKILL itself, so it dies AT the faulted access: no handler
     between the access and the fiber's top level runs, as under a
     real kill. *)
  let crash_hook = ref None
  let set_crash_hook h = crash_hook := h

  let crash_now fiber access =
    inj.stats <- { inj.stats with crashes = (fiber, access) :: inj.stats.crashes };
    Option.iter (fun h -> h ()) !crash_hook;
    raise Fault_plan.Crashed

  (* Classify-and-consult: count this access for the calling fiber,
     fire the first matching pending event, and tell the operation how
     to proceed.  Crash raises out of here; Stall sleeps, then lets
     the operation proceed (the access happens after the stall).  With
     nothing left to fire, counting is moot: the access just proceeds. *)
  let before (cls : Fault_plan.op_class) :
      [ `Proceed | `Skip | `Tear of int * bool | `Lie ] =
    match
      match inj.pending with
      | [] -> None
      | _ -> ( match Sched.current_fiber () with None -> !ambient | f -> f)
    with
    | None -> `Proceed
    | Some fiber ->
      let c = counters_for fiber in
      c.total <- c.total + 1;
      (match cls with
      | `Load -> c.loads <- c.loads + 1
      | `Store -> c.stores <- c.stores + 1
      | `Rmw -> c.rmws <- c.rmws + 1
      | `Bulk -> c.bulks <- c.bulks + 1);
      let rec fire = function
        | [] -> `Proceed
        | (e : Fault_plan.event) :: _ when matches fiber c cls e.point ->
          inj.pending <- List.filter (fun e' -> e' != e) inj.pending;
          (match e.action with
          | Fault_plan.Crash -> crash_now fiber c.total
          | Fault_plan.Stall d ->
            inj.stats <- { inj.stats with stalls = inj.stats.stalls + 1 };
            Sched.sleep d;
            `Proceed
          | Fault_plan.Drop ->
            inj.stats <- { inj.stats with drops = inj.stats.drops + 1 };
            `Skip
          | Fault_plan.Tear { at_word; silent } ->
            if cls = `Bulk then `Tear (at_word, silent)
            else `Proceed (* tear points are `Bulk-typed by construction *)
          | Fault_plan.Cas_lie ->
            if cls = `Rmw then `Lie
            else `Proceed (* cas-lie points are `Rmw-typed by construction *))
        | _ :: rest -> fire rest
      in
      fire inj.pending

  (* {1 Synchronization variables} *)

  type atomic = M.atomic

  let atomic = M.atomic
  let atomic_contended = M.atomic_contended
  let atomic_contended_pair = M.atomic_contended_pair

  let load a =
    ignore (before `Load);
    M.load a

  let store a v = match before `Store with `Skip -> () | _ -> M.store a v

  (* One `Store point, like [store]: a plan cannot tell them apart. *)
  let store_release a v =
    match before `Store with `Skip -> () | _ -> M.store_release a v

  let exchange a v =
    ignore (before `Rmw);
    M.exchange a v

  let fetch_and_add a k =
    ignore (before `Rmw);
    M.fetch_and_add a k

  let incr a = match before `Rmw with `Skip -> () | _ -> M.incr a

  (* Only [compare_and_set] honours `Lie — it is the one rmw whose
     result is a won/lost verdict a protocol can be deceived about.
     Other rmws receiving `Lie proceed normally (the event is spent). *)
  let compare_and_set a old v =
    match before `Rmw with
    | `Lie ->
      inj.stats <- { inj.stats with cas_lies = inj.stats.cas_lies + 1 };
      true
    | _ -> M.compare_and_set a old v

  let fetch_and_or a mask =
    ignore (before `Rmw);
    M.fetch_and_or a mask

  (* {1 Buffers} *)

  type buffer = M.buffer

  let alloc = M.alloc
  let capacity = M.capacity

  let record_tear fiber words =
    inj.stats <- { inj.stats with tears = (fiber, words) :: inj.stats.tears }

  let torn_copy ~len ~at_word ~silent copy =
    let fiber = Option.value ~default:(-1) (Sched.current_fiber ()) in
    let words = min at_word len in
    copy words;
    record_tear fiber words;
    if not silent then crash_now fiber (counters_for fiber).total

  let write_words buf ~src ~len =
    match before `Bulk with
    | `Proceed | `Lie -> M.write_words buf ~src ~len
    | `Skip -> ()
    | `Tear (at_word, silent) ->
      torn_copy ~len ~at_word ~silent (fun words -> M.write_words buf ~src ~len:words)

  let read_word buf i =
    ignore (before `Load);
    M.read_word buf i

  let read_words buf ~dst ~len =
    match before `Bulk with
    | `Proceed | `Lie -> M.read_words buf ~dst ~len
    | `Skip -> ()
    | `Tear (at_word, silent) ->
      torn_copy ~len ~at_word ~silent (fun words -> M.read_words buf ~dst ~len:words)

  let blit src dst ~len =
    match before `Bulk with
    | `Proceed | `Lie -> M.blit src dst ~len
    | `Skip -> ()
    | `Tear (at_word, silent) ->
      torn_copy ~len ~at_word ~silent (fun words -> M.blit src dst ~len:words)

  let cede = M.cede
end
