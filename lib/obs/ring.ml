(* Bounded post-mortem trace of slot-state transitions.

   Transitions are slow-path events — a slot being claimed, frozen,
   reclaimed, recovered — so the recording budget is one RMW (the
   cursor claim) plus one atomic store, nothing the §3.3 fast path
   ever executes.  Each entry is an immutable record published with a
   single [Atomic.set], so a concurrent [dump] can never observe a
   half-written entry: it sees the old record or the new one.  The
   ring keeps the most recent [capacity] events and silently overwrites
   older ones, exactly what a crash post-mortem wants. *)

type entry = { seq : int; at : int; code : int; a : int; b : int; c : int }

type t = {
  mask : int;
  cursor : int Atomic.t;
  slots : entry option Atomic.t array;
}

let next_pow2 n =
  let rec go p = if p >= n then p else go (p * 2) in
  go 1

let create capacity =
  if capacity < 1 then invalid_arg "Ring.create: capacity must be >= 1";
  let cap = next_pow2 capacity in
  {
    mask = cap - 1;
    cursor = Atomic.make 0;
    slots = Array.init cap (fun _ -> Atomic.make None);
  }

let capacity t = Array.length t.slots
let recorded t = Atomic.get t.cursor

let record t ?(at = 0) ~code a b c =
  let seq = Atomic.fetch_and_add t.cursor 1 in
  Atomic.set t.slots.(seq land t.mask) (Some { seq; at; code; a; b; c })

(* Oldest-first view of the surviving entries.  Taken concurrently
   with writers the dump is a best-effort sample: entries race with
   overwrites, but every record returned is internally consistent. *)
let dump t =
  let collected =
    Array.fold_left
      (fun acc slot ->
        match Atomic.get slot with None -> acc | Some e -> e :: acc)
      [] t.slots
  in
  List.sort (fun x y -> compare x.seq y.seq) collected

let clear t =
  Array.iter (fun slot -> Atomic.set slot None) t.slots;
  Atomic.set t.cursor 0

(* {1 Transition codes}

   Shared vocabulary for every register built on the one ARC core
   ([Arc], [Arc_dynamic], [Shm_arc]), so one dump reads the same
   whichever variant produced it. *)

let code_slot_claim = 1 (* W1: find_free picked slot [a] (hint hit iff b=1) *)
let code_publish = 2 (* W2: slot [a] published over displaced slot [b] *)
let code_freeze = 3 (* W3: presence of displaced slot [a] frozen *)
let code_reclaim = 4 (* reclaim_stale evicted slot [a] (lease age [b]) *)
let code_realloc = 5 (* slot [a] buffer reallocated: [b] -> [c] words *)
let code_recover = 6 (* recover_crash: current [a], freed slots [b] *)
let code_quarantine = 7 (* slot [a] quarantined *)

let code_name = function
  | 1 -> "slot_claim"
  | 2 -> "publish"
  | 3 -> "freeze"
  | 4 -> "reclaim"
  | 5 -> "realloc"
  | 6 -> "recover"
  | 7 -> "quarantine"
  | _ -> "unknown"

let pp_entry ppf e =
  Format.fprintf ppf "@[<h>#%d t=%d %s a=%d b=%d c=%d@]" e.seq e.at
    (code_name e.code) e.a e.b e.c

let pp ppf t =
  let entries = dump t in
  Format.fprintf ppf "@[<v>trace ring: %d/%d entries@," (List.length entries)
    (capacity t);
  List.iter (fun e -> Format.fprintf ppf "%a@," pp_entry e) entries;
  Format.fprintf ppf "@]"
