(* arc-crash: real-crash durability + writer-election harness for the
   shared-memory register substrate.

   One campaign over S >= 1 writer SEATS (--shards; a single register
   is a one-seat table).  A seat is one slot of the mapping's reign
   table: a register's [term ∥ vote] election word, its writer-fence
   epoch and its recovery fence.  Winning a seat bumps the table's
   configuration epoch, and the successor's takeover is the
   seat-scoped recovery (Arc_shm.Shm_arc.recover).  Each run builds
   its seats in an mmap'd file (Arc_shm.Shm_mem) and forks, per seat,
   a LEADER writer (candidate 0, which wins term 1) and k hot
   standbys.  A seeded nonempty subset of leaders dies by SIGKILL at a
   planned protocol step (W1, the copy, W2 or W3 of a seeded write)
   while reader domains in the parent keep reading — each domain both
   plain reads of one seat and reign-certified snapshots across all
   of them.  The standbys detect the death through a shared-clock
   heartbeat lease and campaign from a common snapshot of term 1: CAS
   atomicity elects exactly one into term 2, and only the winner — after Arc_resilience.Election's vote
   → prefence → takeover → config bump → issue — continues the write
   sequence.  The parent asserts exactly one successor per seat,
   rebuilds every process's testimony from write-logs stamped with the
   mapping's shared clock, and judges every seat's merged history and
   every certified snapshot through the checker's fabric pass.

     dune exec bin/crash.exe -- --runs 200 --candidates 3
     dune exec bin/crash.exe -- --replay-seed 2049052026 --shards 1 -v
     dune exec bin/crash.exe -- --shards 2 --runs 10

   Exit status 0 = clean (and all negative controls behaved);
   1 = violations (each with the exact replay command, also written
   to --fail-log if given); 2 = a negative control went unconvicted;
   124 = invalid arguments.

   The kill is planned, not timed: the registers run over
   Arc_fault.Fault_mem, and at its kill write a condemned leader
   installs a one-access crash plan whose crash hook SIGKILLs the
   leader itself, so it dies AT that access and no handler runs.  The
   step fixes what the successor must find (a kill before W2 leaves
   the pending write vanished, one after W2 took effect, and one at W2
   or later leaves the superseded slot journaled), and a testimony that
   disagrees is a violation.  A seed reproduces the kill point exactly;
   what the readers and standbys were doing when it landed is the OS
   scheduler's. *)

module Shm_mem = Arc_shm.Shm_mem
module Shm_arc = Arc_shm.Shm_arc
module Layout = Arc_shm.Shm_layout
module History = Arc_trace.History
module Checker = Arc_trace.Checker
module Splitmix = Arc_util.Splitmix
module Driver = Arc_report.Driver
module Fault_plan = Arc_fault.Fault_plan
module P0 = Arc_workload.Payload.Make (Arc_mem.Real_mem)
open Cmdliner

type cfg = {
  runs : int;
  seed : int;
  readers : int;
  candidates : int;  (* hot standbys forked beside each leader *)
  capacity : int;
  writes_max : int;
  kill_at : int;  (* 0 = draw the kill write count from the seed *)
  successor_writes : int;
  shards : int;  (* writer seats *)
  dir : string;
  verbose : bool;
}

(* Heartbeat lease, in shared-clock ticks.  Readers and standbys keep
   the clock moving (a few ticks per µs between them), the leader
   re-stamps the heartbeat word after every write, so the live age
   stays a few dozen ticks; the lease must dominate an OS-level
   preemption of the leader (tens of ms), not a write cycle.  A
   spurious failover under extreme load is SAFE — the fence converts
   it into an early, orderly succession — it just moves the kill test
   off the intended write. *)
let lease_ticks = 50_000

(* Wall-clock bound on a standby's lease watch: only a wedged run ever
   reaches it. *)
let patience = 60.0

(* {1 The shared logs}

   Raw regions of the mapping (skipped by the integrity scan), the
   dead and surviving processes' only way to testify.  Every seat has
   its own.

   Leader write-log: two words per write — invocation and return
   stamps from the shared clock, written around each fenced write.
   After the kill, entry k with a return stamp is a completed write;
   the single entry with an invocation stamp but no return stamp is
   the write in flight when the kill landed.

   Successor write-log: three words per write — seq, invocation and
   return stamps — because unlike the leader's (whose seqs are its
   entry ordinals) the successor's first seq depends on how the
   interrupted write resolved.

   Status blocks: [status_words] per candidate, the standby's verdict
   on its own campaign (won/lost/error, term, takeover accounting,
   probe, the config epoch its reign begins at).  Candidate 0's block
   holds only the leader's reign config. *)

type logs = { log : int; hb : int; status : int; slog : int }

let log_invoked log k = log + (2 * (k - 1))
let log_returned log k = log + (2 * (k - 1)) + 1

let slog_seq slog j = slog + (3 * j)
let slog_invoked slog j = slog + (3 * j) + 1
let slog_returned slog j = slog + (3 * j) + 2

let st_status = 0
and st_term = 1
and st_winner = 2 (* observed winner + 1; 0 = none *)
and st_convictions = 3
and st_torn = 4
and st_journaled = 5
and st_probe = 6 (* observed probe seq + 2; 0 = unset, 1 = torn *)
and st_swrites = 7
and st_config = 8 (* the config epoch the reign begins at *)

let status_words = 9

let status_won = 1
and status_lost = 2
and status_error = 3

let log_words cfg = 2 * (cfg.writes_max + 1)
let slog_words cfg = 3 * (cfg.successor_writes + 1)
let status_block_words cfg = status_words * (cfg.candidates + 1)

(* Reader identities per register: [0, readers) scan the fabric,
   [readers, readers + seats) serve its writers' helping collects
   (Fabric.of_registers), [readers + seats, 2·readers + seats) are the
   plain readers, then the elected successor's post-crash probe read,
   and last the spare that is never used — covering the one slot a
   crash may quarantine (Shm_arc.recover's bounded-leak accounting). *)
let identities cfg = (2 * cfg.readers) + cfg.shards + 2

let mapping_words cfg ~seats ~identities =
  let nslots = identities + 2 in
  let per_seat =
    log_words cfg + slog_words cfg + status_block_words cfg
    + (nslots * (cfg.capacity + (4 * Layout.line_words) + Layout.buf_header + 8))
    + (8 * Layout.line_words)
  in
  (seats * per_seat) + ((seats + 3) * Layout.line_words) + cfg.readers + 2048

(* Every shared record is allocated before the first fork: children
   walk the mapping during recovery, and the creator-only bump
   allocator must be quiescent by then. *)
let alloc_logs cfg m ~seats =
  let logs = Shm_mem.alloc_raw m (seats * log_words cfg) in
  let hbs = Shm_mem.alloc_raw m seats in
  let statuses = Shm_mem.alloc_raw m (seats * status_block_words cfg) in
  let slogs = Shm_mem.alloc_raw m (seats * slog_words cfg) in
  Array.init seats (fun s ->
      {
        log = logs + (s * log_words cfg);
        hb = hbs + s;
        status = statuses + (s * status_block_words cfg);
        slog = slogs + (s * slog_words cfg);
      })

(* {1 The kill plan}

   Where inside its kill write a condemned leader dies: one access,
   named by class and index within the write (the leader installs the
   plan as the write starts, which resets Fault_mem's counts).  The
   write's accesses, in order: the fence's entry load (load 1), W1's
   hint load (load 2) and slot probes, the seq store, the content copy
   (bulk 1), four slot stores, the W1.5 journal store, the guard's
   fence load, the W2 exchange (rmw 1), then W3's two stores.  A
   claimed hint adds one store to W1, so store 8 is a W3 store either
   way.  Each step fixes what the successor must find: the pending
   write vanished or took effect, and whether the journal held a
   slot. *)
type step = {
  step : string;
  cls : Fault_plan.op_class;
  nth : int;
  outcome : Checker.crash_outcome;
  journaled : bool;
}

let steps =
  Checker.
    [
      { step = "W1"; cls = `Load; nth = 2; outcome = Vanished; journaled = false };
      { step = "copy"; cls = `Bulk; nth = 1; outcome = Vanished; journaled = false };
      { step = "W2"; cls = `Rmw; nth = 1; outcome = Vanished; journaled = true };
      { step = "W3"; cls = `Store; nth = 8; outcome = Took_effect; journaled = true };
    ]

type kill = { seat : int; write : int; at : step; landed : bool }

let pp_kill { write; at = { step; cls; nth; _ }; _ } =
  Printf.sprintf "%s@write%d(%s#%d)" step write
    (Fault_plan.class_name (cls :> Fault_plan.kind)) nth

(* At least one seat's leader dies — at one seat, always seat 0's;
   each killed seat draws its own kill write (--kill-at pins them all)
   and step.  Draws happen unconditionally so pinned and drawn runs of
   one seed stay aligned. *)
let kill_plan cfg rng =
  let seats = cfg.shards in
  let kill_count = 1 + Splitmix.int rng seats in
  let kill_order = Array.init seats Fun.id in
  for i = seats - 1 downto 1 do
    let j = Splitmix.int rng (i + 1) in
    let t = kill_order.(i) in
    kill_order.(i) <- kill_order.(j);
    kill_order.(j) <- t
  done;
  List.init kill_count (fun i ->
      let drawn = 1 + Splitmix.int rng cfg.writes_max in
      let at = List.nth steps (Splitmix.int rng (List.length steps)) in
      let write = if cfg.kill_at > 0 then cfg.kill_at else drawn in
      { seat = kill_order.(i); write; at; landed = false })

(* {1 The seat's processes} *)

module Seat (G : Shm_arc.INSTANCE) = struct
  module E = Arc_resilience.Election.Make (G.R)
  module P = Arc_workload.Payload.Make (G.M)

  let set = Shm_mem.atomic_set G.mapping
  let tick () = Shm_mem.tick G.mapping

  (* Seat [shard] as every process sees it: its election word and
     writer-fence epoch over its register, the configuration epoch
     every succession bumps between takeover and issue, and the seat's
     heartbeat word.  The lease clock is [tick], so every look at it
     also keeps the shared clock moving: lease age is measured in
     ticks, and a frozen clock would mask a dead leader. *)
  let seat shard l =
    let m = G.mapping in
    E.of_cells G.regs.(shard)
      ~word:(Shm_mem.shard_election_cell m ~shard)
      ~epoch:(Shm_mem.shard_epoch_cell m ~shard)
      ~config:(Shm_mem.config_epoch_cell m)
      ~hb:l.hb ~now:tick ~lease:lease_ticks

  (* {2 The leader (candidate 0)}

     [elect_leader], run before the leader forks, wins term 1 of the
     seat's fresh election word for candidate 0 — uncontested, but
     going through the campaign keeps the invariant that every writer
     handle in the system was voted for, and arms the lease — and
     records the config epoch the reign begins at (the claim every
     value it publishes is judged under).  The leader then writes
     until killed, bracketing each write in the log and re-stamping
     the heartbeat after it.  It starts only once every reader domain
     has taken its first plain read (each sets its word at [gate]):
     the readers spawn after the last fork, and an ungated leader
     could die before any read overlapped its writes.  It heartbeats
     while it waits, so the wait is no lapse.  A condemned leader
     calls [arm] on its kill just before the kill write's invocation
     stamp; [arm] plans the crash that ends the process inside that
     write.  Only the fence may end its reign early (after a spurious
     failover); any other exception exits non-zero, so the parent
     reports the run. *)
  let elect_leader shard l =
    match E.campaign (seat shard l) ~candidate:0 with
    | E.Won { writer; config; _ } ->
        set (l.status + st_config) config;
        writer
    | E.Lost _ -> failwith (Printf.sprintf "seat %d refused its leader" shard)

  let lead shard l w ~cfg ~seed ~gate ~kill ~arm =
    let rng = Splitmix.of_int seed in
    let src = Array.make cfg.capacity 0 in
    let deadline = Unix.gettimeofday () +. patience in
    let opened id = Shm_mem.atomic_get G.mapping (gate + id) <> 0 in
    while
      (not (List.for_all opened (List.init cfg.readers Fun.id)))
      && Unix.gettimeofday () < deadline
    do
      E.heartbeat w;
      Domain.cpu_relax ()
    done;
    (try
       for k = 1 to cfg.writes_max do
         (match kill with Some kl when kl.write = k -> arm kl | _ -> ());
         let len = 1 + Splitmix.int rng cfg.capacity in
         P0.stamp src ~seq:k ~len;
         set (log_invoked l.log k) (tick ());
         E.write w ~src ~len;
         set (log_returned l.log k) (tick ());
         E.heartbeat w
       done
     with
    | Arc_resilience.Election.Fenced_out _ -> ()
    | e ->
        Printf.eprintf "arc-crash: seat %d leader: %s\n%!" shard
          (Printexc.to_string e);
        Unix._exit 1);
    Unix._exit 0

  (* {2 The hot standbys (candidates 1..k)}

     Snapshot the election word while the leader reigns, monitor the
     heartbeat lease (failure DETECTION), and on expiry campaign from
     that common snapshot (failure ARBITRATION): every standby aims at
     the same succession term, so the CAS admits exactly one.  The
     winner's takeover is the seat's recovery — integrity scan,
     quarantine, prefreeze journal; scoped to the seat, since other
     seats' leaders may be alive and mid-copy — run between the
     prefence and the config bump; then it resolves the interrupted
     write with a probe read (reader identity [probe]) and continues
     the sequence.  Losers record who beat them and exit.  A refused
     recovery raises out of the campaign: the vote's winner records
     an error, is issued nothing and writes nothing.  So does a
     successor whose write raises anything but the fence. *)
  let stand_by shard l ~cfg ~candidate ~probe =
    let el = seat shard l in
    let put f v = set (l.status + (status_words * candidate) + f) v in
    (* The common snapshot: the parent forked us only after electing
       the leader, so every standby sees the same reign here. *)
    let snap = E.observe el in
    let deadline = Unix.gettimeofday () +. patience in
    let rec monitor n =
      if E.expired el then `Expired
      else if n land 1023 = 0 && Unix.gettimeofday () > deadline then `Gave_up
      else begin
        for _ = 1 to 256 do
          Domain.cpu_relax ()
        done;
        monitor (n + 1)
      end
    in
    (match monitor 1 with
    | `Gave_up -> put st_status status_error
    | `Expired -> (
        let takeover () =
          match Shm_arc.recover (module G) ~shard with
          | Ok ((rcv : Shm_mem.recovery), journaled) ->
              put st_convictions (List.length rcv.convicted);
              let torn (c : Shm_mem.conviction) = c.why = Shm_mem.Torn in
              put st_torn (List.length (List.filter torn rcv.convicted));
              put st_journaled journaled;
              List.length rcv.convicted
          | Error e -> failwith e (* a refused seat: do not serve *)
        in
        match E.campaign ~from:snap ~takeover el ~candidate with
        | exception Failure _ -> put st_status status_error
        | E.Lost { term; winner } ->
            put st_term term;
            put st_winner (match winner with Some c -> c + 1 | None -> 0);
            put st_status status_lost
        | E.Won { writer = w; term; config; _ } ->
            put st_term term;
            put st_winner (candidate + 1);
            put st_config config;
            (* Resolve the interrupted write: the register's published
               state is frozen (the leader is dead and fenced), so one
               probe read settles whether its pending W2 exchange
               happened. *)
            let observed =
              G.R.read_with (G.R.reader G.regs.(shard) probe) ~f:(fun buf len ->
                  match P.validate buf ~len with Ok seq -> seq | Error _ -> -1)
            in
            put st_probe (observed + 2);
            if observed < 0 then put st_status status_error
            else begin
              let rng =
                Splitmix.of_int (Shm_mem.publish_seq G.mapping + shard)
              in
              let src = Array.make cfg.capacity 0 in
              let written = ref 0 in
              let status =
                try
                  for j = 0 to cfg.successor_writes - 1 do
                    let seq = observed + 1 + j in
                    let len = 1 + Splitmix.int rng cfg.capacity in
                    P0.stamp src ~seq ~len;
                    let invoked = tick () in
                    E.write w ~src ~len;
                    let returned = tick () in
                    set (slog_invoked l.slog j) invoked;
                    set (slog_returned l.slog j) returned;
                    set (slog_seq l.slog j) seq;
                    incr written
                  done;
                  status_won
                with
                | Arc_resilience.Election.Fenced_out _ -> status_won
                | _ -> status_error
              in
              put st_swrites !written;
              put st_status status
            end));
    Unix._exit 0
end

(* {1 Testimony}

   What one seat's logs say after the run: the leader's writes, how
   its interrupted write (if any) resolved, and who succeeded it. *)

type pending = No_pending | Published of int * int | Vanished

type testimony = {
  writes : int;  (* the leader's last logged write *)
  pending : pending;
  winner : int;  (* elected successor's candidate id; -1 = none *)
  term : int;  (* the term the successor reigns under *)
  losers : int;  (* candidates that campaigned and lost *)
  convictions : int;
  torn : int;
  journaled : int;
  swrites : int;  (* writes by the successor *)
  probe : int;  (* the seq the successor's probe observed *)
  leader_config : int;  (* config epoch each reign begins at *)
  successor_config : int;
  completed : History.event list;  (* the leader's returned writes *)
  successor : History.event list;  (* the successor's writes *)
}

let testify cfg m ~tag l ~fail =
  let fail fmt = Printf.ksprintf (fun s -> fail (tag ^ s)) fmt in
  let get = Shm_mem.atomic_get m in
  (* The leader's write-log. *)
  let n_last = ref 0 in
  let completed = ref [] in
  let pending_entry = ref None in
  (try
     for k = 1 to cfg.writes_max do
       let invoked = get (log_invoked l.log k) in
       if invoked = 0 then raise Exit;
       n_last := k;
       let returned = get (log_returned l.log k) in
       if returned > 0 then
         completed :=
           History.event History.Write ~thread:0 ~seq:k ~invoked ~returned
           :: !completed
       else begin
         if !pending_entry <> None then
           fail "write-log: two entries without return stamps";
         pending_entry := Some (k, invoked)
       end
     done
   with Exit -> ());
  (match !pending_entry with
  | Some (k, _) when k <> !n_last ->
      fail "write-log: unreturned entry %d is not the last (%d)" k !n_last
  | _ -> ());
  (* The candidates' verdicts: EXACTLY one elected successor, everyone
     else an explicit loser — the property the whole term-vote word
     exists to provide. *)
  let field c f = get (l.status + (status_words * c) + f) in
  let winners = ref [] and losers = ref 0 in
  for c = 1 to cfg.candidates do
    let st = field c st_status in
    if st = status_won then winners := c :: !winners
    else if st = status_lost then begin
      incr losers;
      let win = field c st_winner - 1 in
      if win > cfg.candidates then
        fail "candidate %d lost to unknown candidate %d (term %d)" c win
          (field c st_term)
    end
    else fail "candidate %d ended in status %d (neither won nor lost)" c st
  done;
  (match !winners with
  | [ _ ] -> ()
  | [] -> fail "no candidate won the succession"
  | ws ->
      fail "split election: candidates %s all believe they won"
        (String.concat "," (List.map string_of_int ws)));
  let leader_config = field 0 st_config in
  (* With no successor its status block reads as zeros (probe −2), and
     only the leader's log testifies. *)
  let w = match !winners with w :: _ -> w | [] -> -1 in
  let g f = if w < 0 then 0 else field w f in
  let probe = g st_probe - 2 in
  if w >= 0 && g st_term < 2 then
    fail "successor reigns under term %d (the leader held term 1)" (g st_term);
  if g st_convictions > 1 then
    fail "recovery convicted %d slots from one crash" (g st_convictions);
  (* Resolve the interrupted write from the winner's probe. *)
  let pending =
    match !pending_entry with
    | _ when w < 0 -> No_pending
    | None ->
        if probe <> !n_last then
          fail "probe observed seq %d, expected %d (no pending write)" probe
            !n_last;
        No_pending
    | Some (k, invoked) ->
        if probe = k then Published (k, invoked)
        else if probe = k - 1 then Vanished
        else begin
          fail "probe observed seq %d, expected %d or %d" probe (k - 1) k;
          No_pending
        end
  in
  (* A torn content copy can only be the interrupted write's: ARC
     completes every copy before that write's W2 exchange, so all
     earlier writes left complete trailers — and the interrupted write
     cannot have published (the exchange comes after the copy), so a
     torn conviction must coincide with a vanished pending write.
     Readers never see the torn bytes; this checks the bookkeeping
     agrees. *)
  if g st_torn > 0 && pending <> Vanished then
    fail "torn slot convicted, but no pending write vanished — a published \
          or completed write left a torn copy";
  (* The successor's writes, from its log. *)
  let successor = ref [] in
  (try
     for j = 0 to g st_swrites - 1 do
       let seq = get (slog_seq l.slog j) in
       if seq = 0 then raise Exit;
       successor :=
         History.event History.Write ~thread:(cfg.readers + 1) ~seq
           ~invoked:(get (slog_invoked l.slog j))
           ~returned:(get (slog_returned l.slog j))
         :: !successor
     done
   with Exit -> ());
  (match List.rev !successor with
  | (first : History.event) :: _ when first.seq <> probe + 1 ->
      fail "successor started at seq %d, probe says %d" first.seq (probe + 1)
  | [] when w >= 0 -> fail "elected successor published nothing"
  | _ -> ());
  {
    writes = !n_last;
    pending;
    winner = w;
    term = g st_term;
    losers = !losers;
    convictions = g st_convictions;
    torn = g st_torn;
    journaled = g st_journaled;
    swrites = g st_swrites;
    probe;
    leader_config;
    successor_config = g st_config;
    completed = !completed;
    successor = !successor;
  }

(* The testimony's verdict on the interrupted write, named as the
   crash-aware checker names its outcomes. *)
let outcome t =
  match t.pending with
  | No_pending -> Checker.No_crash
  | Published _ -> Checker.Took_effect
  | Vanished -> Checker.Vanished

(* {1 One run} *)

type judgement = {
  reads : int;  (* validated plain reads *)
  snapshots : int;  (* certified snapshots *)
  reign_changed : int;  (* snapshots that returned the typed verdict *)
  config : int;  (* final configuration epoch *)
}

type run_result = {
  seed : int;
  seats : testimony array;  (* event lists emptied for the trip home *)
  kills : kill list;  (* the seeded plan, each kill marked if it landed *)
  judgement : judgement;
  violations : string list;
  path : string;
}

(* Sum [f] over every run, and over every seat of every run. *)
let sum rs f = List.fold_left (fun a r -> a + f r) 0 rs
let total rs f = sum rs (fun r -> Array.fold_left (fun a s -> a + f s) 0 r.seats)

let elected s = if s.winner >= 0 then 1 else 0
let tag = Printf.sprintf "seat %d: "
let history_path path s = Printf.sprintf "%s.%d.history" path s

(* {2 The readers}

   Each reader domain [id] does two reads per paced iteration (and
   after its first plain read opens its word of the leaders' start
   gate): one
   validated plain read of seat [id mod seats] (a history read,
   thread [1 + id]) and one reign-certified cross-seat snapshot (a
   snapshot_obs, thread [1000 + id]).  Helping deposits are heap-local,
   so cross-process scans certify by clean probe passes alone — bounded
   by the certified scan's round budget, with the typed Reign_changed
   verdict as the escape during elections.  That verdict is counted,
   never a violation: it is the designed behavior while a handoff is
   in flight.  The fabric is built before the first fork; the body
   runs in each reader domain. *)

type readings = {
  plain : History.event list;
  snaps : Checker.snapshot_obs list;
  changed : int;  (* Reign_changed verdicts *)
}

let readers cfg (module G : Shm_arc.INSTANCE) ~gate =
  let module P = Arc_workload.Payload.Make (G.M) in
  let module FB = Arc_fabric.Fabric.Make (G.R) in
  let seats = Array.length G.regs in
  let fab =
    FB.of_registers G.regs ~writers:seats ~readers:cfg.readers
      ~capacity:cfg.capacity
  in
  FB.attach_reign fab ~config:(Shm_mem.config_epoch_cell G.mapping);
  fun ~stop id ->
    let rd = G.R.reader G.regs.(id mod seats) (cfg.readers + seats + id) in
    let ctx = FB.scanner fab id in
    let scratch = Array.make cfg.capacity 0 in
    let plain = ref [] and snaps = ref [] and changed = ref 0 in
    let errors = ref [] in
    let err fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
    let gated = ref false in
    while not (Atomic.get stop) do
      (* Pace the reads: the interleaving stress lives in the
         concurrency, not the raw poll rate. *)
      for _ = 1 to 512 do
        Domain.cpu_relax ()
      done;
      let invoked = Shm_mem.tick G.mapping in
      (match G.R.read_with rd ~f:(fun buf len -> P.validate buf ~len) with
      | Ok seq ->
          let returned = Shm_mem.tick G.mapping in
          plain :=
            History.event History.Read ~thread:(1 + id) ~seq ~invoked ~returned
            :: !plain
      | Error msg ->
          err "reader %d: torn read of seat %d: %s" id (id mod seats) msg);
      if not !gated then Shm_mem.atomic_set G.mapping (gate + id) 1;
      gated := true;
      let invoked = Shm_mem.tick G.mapping in
      match FB.snapshot_certified ctx with
      | Error (_ : Arc_fabric.Fabric.reign_change) -> incr changed
      | Ok snap ->
          let returned = Shm_mem.tick G.mapping in
          let observed =
            Array.init seats (fun s ->
                let len = FB.shard_copy snap s ~dst:scratch in
                match P0.validate_words scratch ~len with
                | Ok seq -> seq
                | Error msg ->
                    err "reader %d: seat %d torn in snapshot: %s" id s msg;
                    P0.decode_words scratch)
          in
          snaps :=
            {
              Checker.sthread = 1000 + id;
              invoked;
              returned;
              observed;
              sepoch = FB.snap_epoch snap;
            }
            :: !snaps
    done;
    ( { plain = !plain; snaps = List.rev !snaps; changed = !changed },
      List.rev !errors )

(* {2 The judge}

   Each seat's history is its leader's completed writes, a published
   pending write completed at the seat's recovery fence (the probe
   settled THAT it published, the fence bounds WHEN it still could
   have), its successor's writes, and that seat's plain reads.  Each
   reign claims the values it published from the configuration epoch
   it began at.  The checker's per-shard pass runs the full
   single-register check over the plain reads together with the
   projected snapshot reads; its cross-shard and reign passes judge
   every certified snapshot.  A failing run keeps each seat's history
   next to the mapping, the pending write in its meta lines, so
   arc-check --history can re-judge it offline. *)
let judge m ~path readings testimony ~fail ~failing =
  let seats = Array.length testimony in
  let plain = Array.make seats [] in
  List.iteri
    (fun id r -> plain.(id mod seats) <- r.plain @ plain.(id mod seats))
    readings;
  let reigns = ref [] in
  let claim s first_seq config what =
    if config <= 0 then
      fail (Printf.sprintf "%s%s never recorded its reign" (tag s) what)
    else reigns := { Checker.rshard = s; first_seq; config } :: !reigns
  in
  let fence s = Shm_mem.shard_fence_at m ~shard:s in
  let recorded =
    Array.mapi
      (fun s t -> History.of_events (t.completed @ t.successor @ plain.(s)))
      testimony
  in
  let histories =
    Array.mapi
      (fun s t ->
        claim s 1 t.leader_config "leader";
        if t.winner >= 0 then
          claim s (t.probe + 1) t.successor_config "successor";
        match t.pending with
        | Published (k, invoked) ->
            History.of_events
              (History.event History.Write ~thread:0 ~seq:k ~invoked
                 ~returned:(max (fence s) invoked)
              :: History.events recorded.(s))
        | _ -> recorded.(s))
      testimony
  in
  let snapshots = List.concat_map (fun r -> r.snaps) readings in
  (match
     Checker.check_fabric ~reigns:!reigns ~writes:histories ~snapshots ()
   with
  | Ok _ -> ()
  | Error v -> fail (Format.asprintf "%a" Checker.pp_fabric_violation v));
  if failing () then
    Array.iteri
      (fun s t ->
        let meta =
          ("fence", fence s)
          :: ("epoch", Shm_mem.epoch m)
          :: ("term", t.term)
          :: ("winner", t.winner)
          :: ("shard", s)
          ::
          (match t.pending with
          | Published (k, inv) -> [ ("pending_seq", k); ("pending_invoked", inv) ]
          | _ -> [])
        in
        History.dump ~meta recorded.(s) (history_path path s))
      testimony;
  {
    reads = Array.fold_left (fun a ev -> a + List.length ev) 0 plain;
    snapshots = List.length snapshots;
    reign_changed = List.fold_left (fun a r -> a + r.changed) 0 readings;
    config = Shm_mem.config_epoch m;
  }

let flush_all () =
  flush stdout;
  flush stderr

let run_one cfg ~seed =
  let rng = Splitmix.of_int seed in
  let path =
    Filename.concat cfg.dir
      (Printf.sprintf "arc-crash-%d-%d.shm" (Unix.getpid ()) seed)
  in
  let seats = cfg.shards and identities = identities cfg in
  let words = mapping_words cfg ~seats ~identities in
  let m = Shm_mem.create ~path ~words in
  let init = Array.make cfg.capacity 0 in
  P0.stamp init ~seq:0 ~len:cfg.capacity;
  (* Every process runs the registers over Fault_mem: a pass-through
     until a condemned leader arms its kill. *)
  let module F = Arc_fault.Fault_mem.Make ((val Shm_mem.mem m)) in
  let inst =
    Shm_arc.create ~mem:(module F) m ~shards:seats ~readers:identities
      ~capacity:cfg.capacity ~init
  in
  let module G = (val inst : Shm_arc.INSTANCE) in
  let module W = Seat (G) in
  let logs = alloc_logs cfg m ~seats in
  let gate = Shm_mem.alloc_raw m cfg.readers in
  let plan = kill_plan cfg rng in
  let arm k =
    F.set_ambient_fiber (Some 0);
    F.set_crash_hook (Some (fun () -> Unix.kill (Unix.getpid ()) Sys.sigkill));
    F.install
      (Fault_plan.crash ~kind:(k.at.cls :> Fault_plan.kind) ~fiber:0
         ~at_access:k.at.nth Fault_plan.empty)
  in
  let reader = readers cfg inst ~gate in
  let violations = ref [] in
  let fail s = violations := s :: !violations in
  (* Elect each seat's leader into term 1 and fork it, then fork its
     standbys, so every standby snapshots the same reign to
     campaign from — the exactly-one-successor argument starts at
     this common snapshot.  All forks complete before any reader
     domain spawns (OCaml 5 refuses to fork once domains exist). *)
  let standbys = ref [] in
  let leaders =
    Array.mapi
      (fun s l ->
        let w = W.elect_leader s l in
        let kill = List.find_opt (fun k -> k.seat = s) plan in
        flush_all ();
        let pid =
          match Unix.fork () with
          | 0 -> W.lead s l w ~cfg ~seed:(seed lxor (0x5DEECE66 + s)) ~gate ~kill ~arm
          | pid -> pid
        in
        for candidate = 1 to cfg.candidates do
          flush_all ();
          match Unix.fork () with
          | 0 -> W.stand_by s l ~cfg ~candidate ~probe:(identities - 2)
          | pid -> standbys := pid :: !standbys
        done;
        pid)
      logs
  in
  let stop = Atomic.make false in
  let domains =
    List.init cfg.readers (fun id -> Domain.spawn (fun () -> reader ~stop id))
  in
  (* A condemned leader dies at its planned access; the others drain
     their writes and exit, and every seat fails over on lease expiry.
     A condemned leader that exits instead was fenced before its kill
     write by a spurious failover (see [lease_ticks]): safe, but its
     kill did not land. *)
  let exits = Array.map (fun pid -> snd (Unix.waitpid [] pid)) leaders in
  let killed s = exits.(s) = Unix.WSIGNALED Sys.sigkill in
  Array.iteri
    (fun s st ->
      if not (killed s || st = Unix.WEXITED 0) then
        fail (tag s ^ "leader exited abnormally"))
    exits;
  (* The elections now run among the standbys; wait them all out
     (losers exit as soon as they lose; winners after their
     successor writes). *)
  List.iter (fun pid -> ignore (Unix.waitpid [] pid)) !standbys;
  Unix.sleepf 0.002;
  Atomic.set stop true;
  let readings =
    List.map
      (fun d ->
        let r, errors = Domain.join d in
        List.iter fail errors;
        r)
      domains
  in
  let testimony =
    Array.mapi (fun s l -> testify cfg m ~tag:(tag s) l ~fail) logs
  in
  let kills = List.map (fun k -> { k with landed = killed k.seat }) plan in
  (* The step a leader died at fixes what its successor must find,
     and no step leaves a slot for the integrity scan to convict. *)
  List.iter
    (fun k ->
      let t = testimony.(k.seat) in
      let expected = (k.at.outcome, k.at.journaled, 0) in
      if k.landed && (outcome t, t.journaled = 1, t.convictions) <> expected then
        fail
          (Printf.sprintf "%skilled at %s, but the testimony says %s, \
                           journaled=%d, convicted=%d"
             (tag k.seat) (pp_kill k)
             (Checker.crash_outcome_name (outcome t)) t.journaled t.convictions))
    kills;
  let judgement =
    judge m ~path readings testimony ~fail ~failing:(fun () -> !violations <> [])
  in
  let result =
    {
      seed;
      seats =
        Array.map (fun t -> { t with completed = []; successor = [] }) testimony;
      kills;
      judgement;
      violations = List.rev !violations;
      path;
    }
  in
  Shm_mem.close m;
  if result.violations = [] then Sys.remove path;
  result

(* Landed kills per planned step, and seats per testimony outcome. *)
let by_step rs =
  List.map
    (fun p ->
      let at k = k.landed && k.at.step = p.step in
      (p.step, sum rs (fun r -> List.length (List.filter at r.kills))))
    steps

let by_outcome rs =
  List.map
    (fun o ->
      ( Checker.crash_outcome_name o,
        total rs (fun t -> if outcome t = o then 1 else 0) ))
    Checker.[ No_crash; Vanished; Took_effect ]

let killed rs = List.fold_left (fun a (_, n) -> a + n) 0 (by_step rs)

let pp_tally l =
  String.concat ", " (List.map (fun (k, n) -> Printf.sprintf "%s=%d" k n) l)

let pp_seat r s t =
  Printf.sprintf
    "seat %d: kill=%s writes=%d winner=c%d term=%d losers=%d \
     convicted=%d torn=%d journaled=%d swrites=%d outcome=%s"
    s
    (match List.find_opt (fun k -> k.seat = s) r.kills with
    | None -> "none"
    | Some k -> pp_kill k ^ if k.landed then "" else "(not reached)")
    t.writes t.winner t.term t.losers t.convictions t.torn t.journaled t.swrites
    (Checker.crash_outcome_name (outcome t))

let print ~verbose r =
  if verbose || r.violations <> [] then begin
    let j = r.judgement in
    Printf.printf
      "run [seed %d]: %s%skilled=%d reads=%d snapshots=%d reign-changed=%d \
       config=%d — %s\n"
      r.seed
      (String.concat "; " (Array.to_list (Array.mapi (pp_seat r) r.seats)))
      (if r.seats = [||] then "" else "; ")
      (killed [ r ]) j.reads j.snapshots j.reign_changed j.config
      (if r.violations = [] then "ok" else String.concat "; " r.violations);
    if r.violations <> [] && r.path <> "" then begin
      Printf.printf "  mapping kept at %s\n" r.path;
      Array.iteri
        (fun s _ ->
          Printf.printf
            "  re-judge: dune exec bin/check.exe -- --history %s --shm %s\n"
            (history_path r.path s) r.path)
        r.seats
    end
  end

(* A forked process may not fork again once it has spawned domains
   (OCaml 5's Unix.fork refuses), and each run needs both — fork the
   leaders and standbys first, then spawn reader domains.  So the
   campaign runs every run in its own forked subprocess, which
   performs its forks while still single-domain.  The subprocess
   prints its own per-run line and ships the result record back
   through a temp file. *)
let run_one_isolated cfg ~seed =
  let stub msg =
    {
      seed;
      seats = [||];
      kills = [];
      judgement = { reads = 0; snapshots = 0; reign_changed = 0; config = 0 };
      violations = [ msg ];
      path = "";
    }
  in
  let tmp = Filename.temp_file "arc-crash-res" ".bin" in
  flush_all ();
  match Unix.fork () with
  | 0 ->
      let r = try run_one cfg ~seed with e -> stub (Printexc.to_string e) in
      print ~verbose:cfg.verbose r;
      flush stdout;
      let oc = open_out_bin tmp in
      Marshal.to_channel oc r [];
      close_out oc;
      Unix._exit 0
  | pid ->
      ignore (Unix.waitpid [] pid);
      let r =
        try
          let ic = open_in_bin tmp in
          let r : run_result = Marshal.from_channel ic in
          close_in ic;
          r
        with _ ->
          let r = stub "run subprocess died without reporting" in
          print ~verbose:cfg.verbose r;
          r
      in
      (try Sys.remove tmp with Sys_error _ -> ());
      r

let summary cfg ~failing rs =
  Printf.printf
    "arc-crash: %d runs (%d seat%s each), %d failing; leaders killed %d (%s), \
     slots convicted %d, journal quarantines %d, elected successors %d, losing candidates %d, plain reads %d, snapshots certified \
     %d, reign-changed verdicts %d; outcomes: %s\n"
    cfg.runs cfg.shards
    (if cfg.shards = 1 then "" else "s")
    failing (killed rs)
    (pp_tally (by_step rs))
    (total rs (fun s -> s.convictions))
    (total rs (fun s -> s.journaled))
    (total rs elected)
    (total rs (fun s -> s.losers))
    (sum rs (fun r -> r.judgement.reads))
    (sum rs (fun r -> r.judgement.snapshots))
    (sum rs (fun r -> r.judgement.reign_changed))
    (pp_tally (by_outcome rs))

(* Campaign counters as an exposition dump.  The per-run elections and
   recoveries happen in forked subprocesses, so their process-local
   Obs cells die with them — the campaign aggregates come from the
   marshalled run results instead, while the Election/Shm_mem sections
   reflect only what this process did itself (the negative controls,
   or a --replay-seed run). *)
let print_metrics ~runs ~failing rs =
  let open Arc_obs.Obs in
  let family name label ~help =
    List.map (fun (v, n) -> counter name ~labels:[ (label, v) ] ~help n)
  in
  print_string
    (prometheus
       ([
          counter "crash_runs_total" ~help:"Kill-9 runs executed" runs;
          counter "crash_failing_runs_total" ~help:"Runs with violations" failing;
          counter "crash_killed_leaders_total" ~help:"Seat leaders SIGKILLed"
            (killed rs);
          counter "crash_slots_convicted_total"
            ~help:"Register slots convicted by post-crash recovery"
            (total rs (fun s -> s.convictions));
          counter "crash_journal_quarantines_total"
            ~help:"Slots quarantined via the prefreeze journal"
            (total rs (fun s -> s.journaled));
          counter "crash_elected_successors_total"
            ~help:"Seats where exactly one standby won the succession"
            (total rs elected);
          counter "crash_losing_candidates_total"
            ~help:"Standby campaigns that lost their election"
            (total rs (fun s -> s.losers));
          counter "crash_snapshots_total"
            ~help:"Certified cross-seat snapshots served"
            (sum rs (fun r -> r.judgement.snapshots));
          counter "crash_reign_changed_total"
            ~help:"Snapshots that returned the typed Reign_changed verdict"
            (sum rs (fun r -> r.judgement.reign_changed));
        ]
       @ family "crash_kills_total" "step" (by_step rs)
           ~help:"Leaders SIGKILLed at each planned protocol step"
       @ family "crash_outcomes_total" "outcome" (by_outcome rs)
           ~help:"Seats by the testimony's resolution of the pending write"
       @ Arc_resilience.Election.metrics ()
       @ Arc_fabric.Fabric.reign_metrics ()
       @ Shm_mem.metrics ()))

(* Every invocation runs all three control families — each prints its
   verdict lines, so none is short-circuited. *)
let controls cfg =
  let conviction = Crash_controls.conviction ~dir:cfg.dir in
  let election = Crash_controls.election () in
  let cross_reign = Crash_controls.cross_reign () in
  conviction && election && cross_reign

let replay_command cfg seed =
  Arc_report.Replay.(
    render ~exe:"arc-crash"
      [
        int "--replay-seed" seed;
        int "--shards" cfg.shards;
        int "--readers" cfg.readers;
        int "--candidates" cfg.candidates;
        int "--kill-at" cfg.kill_at;
        int "--capacity" cfg.capacity;
        int "--writes" cfg.writes_max;
        int "--successor-writes" cfg.successor_writes;
      ])

let run_campaign cfg fail_log skip_controls metrics =
  let results =
    List.init cfg.runs (fun k ->
        run_one_isolated cfg ~seed:(Driver.derive_seed cfg.seed (k + 1)))
  in
  let failing = List.filter (fun r -> r.violations <> []) results in
  let nfailing = List.length failing in
  summary cfg ~failing:nfailing results;
  Driver.report ?fail_log ~replay:(replay_command cfg)
    (List.map (fun r -> (r.seed, None)) failing);
  let controls_ok = skip_controls || controls cfg in
  if metrics then print_metrics ~runs:cfg.runs ~failing:nfailing results;
  Driver.finish ~failing:nfailing ~controls_ok

let replay cfg seed metrics =
  Printf.printf "replaying seed %d (%d seats)\n" seed cfg.shards;
  let r = run_one cfg ~seed in
  print ~verbose:true r;
  let failing = if r.violations <> [] then 1 else 0 in
  if metrics then print_metrics ~runs:1 ~failing [ r ];
  Driver.finish ~failing ~controls_ok:true

(* {1 Command line} *)

let run runs seed readers candidates capacity writes kill_at successor_writes
    dir replay_seed verbose fail_log skip_controls metrics shards =
  let dir = match dir with Some d -> d | None -> Filename.get_temp_dir_name () in
  let cfg =
    {
      runs;
      seed;
      readers;
      candidates;
      capacity;
      writes_max = writes;
      kill_at;
      successor_writes;
      shards;
      dir;
      verbose;
    }
  in
  (* Reject what would misconfigure every run, before any fork: a kill
     write past --writes is one no leader reaches, so nobody dies. *)
  List.iter
    (fun (bad, msg) ->
      if bad then begin
        prerr_endline ("arc-crash: " ^ msg);
        exit 124
      end)
    [
      (readers < 1, "--readers must be >= 1");
      (candidates < 1, "--candidates must be >= 1");
      (shards < 1, "--shards must be >= 1");
      (writes < 1, "--writes must be >= 1");
      (capacity < 1, "--capacity must be >= 1");
      (successor_writes < 1, "--successor-writes must be >= 1");
      ( kill_at < 0 || kill_at > writes,
        Printf.sprintf "--kill-at %d is outside [0, --writes] = [0, %d]" kill_at
          writes );
    ];
  match replay_seed with
  | Some s -> replay cfg s metrics
  | None -> run_campaign cfg fail_log skip_controls metrics

let cmd =
  let int_opt name default docv doc =
    Arg.(value & opt int default & info [ name ] ~docv ~doc)
  in
  let some_opt c name docv doc =
    Arg.(value & opt (some c) None & info [ name ] ~docv ~doc)
  in
  let flag names doc = Arg.(value & flag & info names ~doc) in
  Cmd.v
    (Cmd.info "arc-crash"
       ~doc:
         "Kill-9 the leading writers of shared-memory ARC registers (writer \
          seats of one reign table) at seeded protocol steps (W1, the copy, \
          W2 or W3 of a seeded write) while hot-standby candidates race to \
          succeed them through each seat's term-vote election; verify that \
          each interrupted write resolves as its kill step dictates, that \
          exactly one successor is elected per seat, and that every seat's \
          merged cross-process history — plain reads and reign-certified \
          cross-seat snapshots alike — stays atomic.")
    Term.(
      const run
      $ int_opt "runs" 20 "N" "Kill-9 runs."
      $ int_opt "seed" 2049 "N" "Base seed."
      $ int_opt "readers" 3 "N"
          "Reader domains in the parent; each takes plain reads of one seat \
           and certified snapshots of all of them."
      $ int_opt "candidates" 2 "K"
          "Hot-standby candidate processes forked beside each leader; after \
           the kill they campaign for the succession and exactly one must \
           win."
      $ int_opt "capacity" 32 "WORDS" "Snapshot words."
      $ int_opt "writes" 30_000 "N" "Leader writes before it stops on its own."
      $ int_opt "kill-at" 0 "K"
          "Kill each condemned leader inside its K-th write instead of \
           drawing K from the seed (0 = draw; the draws still run, so a \
           pinned run keeps the seed's choice of seats and steps).  Printed \
           in every replay command, so a replay arms the same kill points."
      $ int_opt "successor-writes" 100 "N"
          "Writes by each elected successor after failover."
      $ some_opt Arg.string "dir" "DIR"
          "Directory for mapping files (default: system temp dir)."
      $ some_opt Arg.int "replay-seed" "SEED"
          "Replay one derived seed (as printed by a failing campaign) and \
           exit."
      $ flag [ "v"; "verbose" ] "Per-run lines."
      $ some_opt Arg.string "fail-log" "PATH"
          "Write failing-seed replay commands to this file (CI artifact)."
      $ flag [ "skip-controls" ]
          "Skip the conviction, election and cross-reign negative controls."
      $ flag [ "metrics" ]
          "After the campaign (or replay), print the crash/recovery/election \
           counters — runs, leaders killed (in all and per planned step), \
           outcomes, convictions, journal quarantines, elections, snapshots \
           — as a Prometheus-style text dump."
      $ int_opt "shards" 1 "S"
          "Writer seats (registers of one reign table), each with its own \
           leader and $(b,--candidates) hot standbys; a seeded nonempty \
           subset of leaders dies by SIGKILL at a planned step.  1 = a \
           single register.")

let () = exit (Cmd.eval cmd)
