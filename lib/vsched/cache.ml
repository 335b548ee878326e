type state = I | S | M

type stats = {
  reads : int;
  writes : int;
  hits : int;
  fetches : int;
  rfos : int;
  invalidations : int;
  writebacks : int;
}

let zero_stats =
  { reads = 0; writes = 0; hits = 0; fetches = 0; rfos = 0; invalidations = 0;
    writebacks = 0 }

type t = {
  nagents : int;
  lines : (int, state array) Hashtbl.t;
  mutable reads : int;
  mutable writes : int;
  mutable hits : int;
  mutable fetches : int;
  mutable rfos : int;
  mutable invalidations : int;
  mutable writebacks : int;
}

let hit_cost = 1
let fetch_cost = 8
let rfo_cost = 12

let create ~agents =
  if agents < 1 then invalid_arg "Cache.create: agents < 1";
  {
    nagents = agents;
    lines = Hashtbl.create 1024;
    reads = 0;
    writes = 0;
    hits = 0;
    fetches = 0;
    rfos = 0;
    invalidations = 0;
    writebacks = 0;
  }

let agents t = t.nagents
let init_agent t = t.nagents - 1

let states_of t line =
  match Hashtbl.find_opt t.lines line with
  | Some s -> s
  | None ->
    let s = Array.make t.nagents I in
    Hashtbl.replace t.lines line s;
    s

let check_agent t agent =
  if agent < 0 || agent >= t.nagents then invalid_arg "Cache: agent out of range"

let read t ~agent ~line =
  check_agent t agent;
  t.reads <- t.reads + 1;
  let states = states_of t line in
  match states.(agent) with
  | M | S ->
    t.hits <- t.hits + 1;
    hit_cost
  | I ->
    (* GetS: any modified copy elsewhere is written back to shared. *)
    Array.iteri
      (fun a st ->
        if a <> agent && st = M then begin
          states.(a) <- S;
          t.writebacks <- t.writebacks + 1
        end)
      states;
    states.(agent) <- S;
    t.fetches <- t.fetches + 1;
    fetch_cost

let write t ~agent ~line =
  check_agent t agent;
  t.writes <- t.writes + 1;
  let states = states_of t line in
  match states.(agent) with
  | M ->
    t.hits <- t.hits + 1;
    hit_cost
  | S | I ->
    (* GetX: invalidate every other copy (writing back a modified
       one), then take the line exclusively. *)
    Array.iteri
      (fun a st ->
        if a <> agent && st <> I then begin
          if st = M then t.writebacks <- t.writebacks + 1;
          states.(a) <- I;
          t.invalidations <- t.invalidations + 1
        end)
      states;
    states.(agent) <- M;
    t.rfos <- t.rfos + 1;
    rfo_cost

let stats t =
  {
    reads = t.reads;
    writes = t.writes;
    hits = t.hits;
    fetches = t.fetches;
    rfos = t.rfos;
    invalidations = t.invalidations;
    writebacks = t.writebacks;
  }

let reset_stats t =
  t.reads <- 0;
  t.writes <- 0;
  t.hits <- 0;
  t.fetches <- 0;
  t.rfos <- 0;
  t.invalidations <- 0;
  t.writebacks <- 0
