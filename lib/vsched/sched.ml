open Effect
open Effect.Deep

type _ Effect.t += Cede : int -> unit Effect.t
type _ Effect.t += Sleep : int -> unit Effect.t

type status =
  | Fresh of (unit -> unit)
  | Suspended of (unit, unit) continuation
  | Finished

type t = {
  status : status array;
  runnable : int array;  (* ids of runnable fibers, first [nrunnable] *)
  pos : int array;  (* fiber id -> index in [runnable], -1 if absent *)
  mutable nrunnable : int;
  (* Fibers postponed by a steal/starve decision: (id, wake_step). *)
  mutable postponed : (int * int) list;
  mutable steps : int;
  mutable running : int;  (* id of the fiber currently executing, -1 otherwise *)
  mutable live : int;  (* fibers not yet Finished *)
}

type outcome = { steps : int; completed : int; unfinished : int }

(* The scheduler of the enclosing run, per domain.  Fibers find it to
   answer self()/now(); cede() outside any run degrades to a no-op. *)
let current_key : t option ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref None)

let current () = !(Domain.DLS.get current_key)

(* Every simulated access cedes with weight 1: that effect, and each
   fiber's handler for it, are allocated once, not per access. *)
let cede_one = Cede 1

let cede ?(weight = 1) () =
  match current () with
  | None -> ()
  | Some t ->
    if t.running >= 0 then perform (if weight = 1 then cede_one else Cede weight)

let sleep d =
  match current () with
  | None -> ()
  | Some t -> if t.running >= 0 && d > 0 then perform (Sleep d) else ()

let current_fiber () =
  match current () with
  | Some t when t.running >= 0 -> Some t.running
  | _ -> None

let self () =
  match current_fiber () with
  | Some id -> id
  | None -> failwith "Sched.self: not inside a fiber"

let now () = match current () with Some t -> t.steps | None -> 0
let fiber_count () = match current () with Some t -> Array.length t.status | None -> 0

let add_runnable t id =
  t.pos.(id) <- t.nrunnable;
  t.runnable.(t.nrunnable) <- id;
  t.nrunnable <- t.nrunnable + 1

let remove_runnable t id =
  let i = t.pos.(id) in
  assert (i >= 0);
  let last = t.nrunnable - 1 in
  let moved = t.runnable.(last) in
  t.runnable.(i) <- moved;
  t.pos.(moved) <- i;
  t.nrunnable <- last;
  t.pos.(id) <- -1

let wake_due t =
  if t.postponed <> [] then begin
    let due, rest = List.partition (fun (_, until) -> until <= t.steps) t.postponed in
    t.postponed <- rest;
    List.iter
      (fun (id, _) ->
        match t.status.(id) with Finished -> () | _ -> add_runnable t id)
      due
  end

(* If everything runnable got postponed, fast-forward simulated time
   to the earliest wake-up rather than deadlocking. *)
let skip_to_next_wake t =
  match t.postponed with
  | [] -> ()
  | (_, u) :: rest ->
    let earliest = List.fold_left (fun acc (_, u) -> min acc u) u rest in
    if earliest > t.steps then t.steps <- earliest;
    wake_due t

(* Run one scheduling quantum of fiber [id]: resume it until its next
   Cede (which re-suspends it) or its completion. *)
let step_fiber t id =
  t.running <- id;
  (match t.status.(id) with
  | Finished -> ()
  | Suspended k ->
    t.status.(id) <- Finished (* will be overwritten by the handler on Cede *);
    continue k ()
  | Fresh f ->
    let on_cede_one =
      Some
        (fun (k : (unit, unit) continuation) ->
          t.steps <- t.steps + 1;
          t.status.(id) <- Suspended k)
    in
    let handler =
      {
        retc = (fun () -> ());
        exnc = raise;
        effc =
          (fun (type a) (eff : a Effect.t) :
               ((a, unit) continuation -> unit) option ->
            match eff with
            | Cede 1 -> on_cede_one
            | Cede weight ->
              Some
                (fun (k : (a, _) continuation) ->
                  t.steps <- t.steps + weight;
                  t.status.(id) <- Suspended k)
            | Sleep d ->
              Some
                (fun (k : (a, _) continuation) ->
                  t.steps <- t.steps + 1;
                  t.status.(id) <- Suspended k;
                  (* Unlike Cede, a sleeping fiber leaves the runnable
                     set entirely until its wake step — fault stalls
                     must not depend on the strategy's goodwill. *)
                  remove_runnable t id;
                  t.postponed <- (id, t.steps + d) :: t.postponed)
            | _ -> None);
      }
    in
    t.status.(id) <- Finished;
    match_with f () handler);
  t.running <- -1;
  let finished = match t.status.(id) with Finished -> true | _ -> false in
  if finished then begin
    if t.pos.(id) >= 0 then remove_runnable t id;
    t.live <- t.live - 1
  end

(* ... except that Finished is set optimistically before resuming: if
   the fiber ceded, the handler replaced it with Suspended; if it
   truly returned, it stays Finished.  [live] bookkeeping relies on
   this: we only decrement when the status survived as Finished. *)

let run ?(max_steps = max_int) ~strategy fibers =
  let n = Array.length fibers in
  if n = 0 then { steps = 0; completed = 0; unfinished = 0 }
  else begin
    let t =
      {
        status = Array.map (fun f -> Fresh f) fibers;
        runnable = Array.make n 0;
        pos = Array.make n (-1);
        nrunnable = 0;
        postponed = [];
        steps = 0;
        running = -1;
        live = n;
      }
    in
    for id = 0 to n - 1 do
      add_runnable t id
    done;
    let slot = Domain.DLS.get current_key in
    (match !slot with
    | Some _ -> failwith "Sched.run: already inside a scheduler on this domain"
    | None -> ());
    slot := Some t;
    let restore () = slot := None in
    (try
       let runnable () = (t.runnable, t.nrunnable) in
       while t.live > 0 && t.steps < max_steps do
         wake_due t;
         if t.nrunnable = 0 then skip_to_next_wake t
         else begin
           match Strategy.decide strategy ~step:t.steps ~runnable with
           | Strategy.Run id ->
             t.steps <- t.steps + 1;
             step_fiber t id
           | Strategy.Postpone (id, until) ->
             remove_runnable t id;
             t.postponed <- (id, until) :: t.postponed;
             (* Postponing consumes a step too, so a strategy that
                postpones everything still makes time advance. *)
             t.steps <- t.steps + 1
         end
       done
     with e ->
       restore ();
       raise e);
    restore ();
    let completed =
      Array.fold_left
        (fun acc s -> match s with Finished -> acc + 1 | _ -> acc)
        0 t.status
    in
    { steps = t.steps; completed; unfinished = n - completed }
  end
