(* Wait-free reader admission (ISSUE 8).

   The registers pre-declare a static reader population: [create
   ~readers] sizes the presence ledger, each identity pins one unit of
   presence on its handle's last-read slot forever, and the packed
   count guard raises [Saturated] if the population is exceeded.  That
   model is exactly the paper's, and exactly wrong for churn: short-
   lived readers arriving and leaving at Fig-3 scale would either
   exhaust identities or — worse — be tempted to mint a fresh handle
   per arrival, which corrupts the presence ledger (a fresh handle
   releases a presence unit on slot 0 it never acquired, and leaks the
   unit its predecessor pinned elsewhere; the soak's gate-bypass
   control convicts precisely this).

   The admission gate closes the gap without touching the register's
   algorithms or its wait-freedom:

   - {b Identities are a leased pool.}  The gate owns [capacity]
     reader identities and their {e pre-built, persistent} handles.
     Admission hands out a {e ticket} — a claim on one identity — and
     the same handle serves every tenant of that identity in turn, so
     the ledger sees one immortal reader per identity, as the paper
     assumes.

   - {b Refusal is a value, not an exception.}  When no identity is
     free (and the bounded waiting room is exhausted), the caller gets
     [Backpressured {retry_after; live; high_water}] — full-jitter
     delay suggestion, current load, historical peak — instead of a
     [Saturated] raise escaping from deep inside a read.

   - {b Crash without depart is survivable.}  Tickets are leases: a
     holder renews while it reads, and a sweep (explicit, or fired by
     admission pressure) reclaims identities whose lease expired, so a
     kill-9'd reader costs one identity for one lease, not forever.

   Wait-freedom: [Pool.admit], [depart], [renew] and [sweep] are
   bounded — at most two scans over [capacity] slots, each slot one
   CAS that is never retried (a lost race just moves on).  Only
   [admit_wait]'s waiting room blocks, by design and by deadline.

   Slot protocol.  Each identity is one [Atomic.t] word: {e even} =
   free, {e odd} = held; every transition is a [compare_and_set] to
   [w + 1], so the word doubles as a generation counter.  A depart (or
   evict) racing a completed evict-and-readmit fails its CAS — the
   word has advanced past the remembered token — which is the whole
   reclaim-then-late-release story: a zombie holder coming back after
   its lease was swept cannot free the identity out from under the new
   tenant. *)

module RI = Arc_core.Register_intf
module Splitmix = Arc_util.Splitmix
module Obs = Arc_obs.Obs

module Pool = struct
  type ticket = { slot : int; token : int  (** the odd word we hold *) }

  type t = {
    capacity : int;
    lease : int;  (** ticket lease in clock units; [<= 0] disables eviction *)
    words : int Atomic.t array;  (** even = free, odd = held; CAS +1 only *)
    renewed : int Atomic.t array;  (** last renewal time, valid while held *)
    cursor : int Atomic.t;  (** rotating scan start — spreads admit CAS traffic *)
    salt : int Atomic.t;  (** uniquifies jitter seeds for same-instant refusals *)
    live : int Atomic.t;
    high_water : int Atomic.t;
    waiters : int Atomic.t;  (** current waiting-room occupancy *)
    events : Obs.Admission.t;
  }

  let create ?(lease = 0) ~capacity () =
    if capacity < 1 then
      invalid_arg (Printf.sprintf "Admission.Pool.create: capacity = %d" capacity);
    {
      capacity;
      lease;
      words = Array.init capacity (fun _ -> Atomic.make 0);
      renewed = Array.init capacity (fun _ -> Atomic.make 0);
      cursor = Atomic.make 0;
      salt = Atomic.make 0;
      live = Atomic.make 0;
      high_water = Atomic.make 0;
      waiters = Atomic.make 0;
      events = Obs.Admission.create ();
    }

  let capacity t = t.capacity
  let lease t = t.lease
  let live t = Atomic.get t.live
  let high_water t = Atomic.get t.high_water
  let events t = t.events
  let holds t ticket = Atomic.get t.words.(ticket.slot) = ticket.token

  (* CAS-max; bounded in practice (one retry per concurrent admit). *)
  let rec note_high_water t l =
    let h = Atomic.get t.high_water in
    if l > h && not (Atomic.compare_and_set t.high_water h l) then
      note_high_water t l

  let sweep t ~now =
    if t.lease <= 0 then 0
    else begin
      let evicted = ref 0 in
      for i = 0 to t.capacity - 1 do
        let w = Atomic.get t.words.(i) in
        if
          w land 1 = 1
          && now - Atomic.get t.renewed.(i) > t.lease
          && Atomic.compare_and_set t.words.(i) w (w + 1)
        then begin
          Atomic.decr t.live;
          Obs.Admission.evicted t.events;
          incr evicted
        end
      done;
      !evicted
    end

  (* One bounded scan from a rotating start; the CAS either claims the
     slot or someone else just did — never retried on the same slot. *)
  let scan t ~now =
    let start = Atomic.fetch_and_add t.cursor 1 in
    let found = ref None in
    let k = ref 0 in
    while !found = None && !k < t.capacity do
      let i = (start + !k) mod t.capacity in
      let w = Atomic.get t.words.(i) in
      if w land 1 = 0 && Atomic.compare_and_set t.words.(i) w (w + 1) then begin
        Atomic.set t.renewed.(i) now;
        let l = 1 + Atomic.fetch_and_add t.live 1 in
        note_high_water t l;
        found := Some { slot = i; token = w + 1 }
      end;
      incr k
    done;
    !found

  (* The verdict payload, without counting a refusal — [guard] probes
     this after eviction without inflating arc_admission_backpressured. *)
  let pressure t ~now =
    let rng = Splitmix.of_int ((now * 0x2545F) lxor Atomic.fetch_and_add t.salt 1) in
    let ceiling = max 4 (2 * t.capacity) in
    {
      RI.retry_after = 1 + Splitmix.int rng ceiling;
      live = Atomic.get t.live;
      high_water = Atomic.get t.high_water;
    }

  let admit t ~now =
    match scan t ~now with
    | Some tk ->
      Obs.Admission.admitted t.events;
      RI.Admitted tk
    | None -> (
      (* Sweep-on-pressure: a full pool may be full of corpses. *)
      let resweep = sweep t ~now > 0 in
      match if resweep then scan t ~now else None with
      | Some tk ->
        Obs.Admission.admitted t.events;
        RI.Admitted tk
      | None ->
        Obs.Admission.backpressured t.events;
        RI.Backpressured (pressure t ~now))

  let depart t ticket =
    if Atomic.compare_and_set t.words.(ticket.slot) ticket.token (ticket.token + 1)
    then begin
      Atomic.decr t.live;
      Obs.Admission.departed t.events;
      true
    end
    else false (* already evicted (and possibly re-admitted): leave it be *)

  (* CAS-max on the timestamp so a zombie's stale renewal can never
     {e shorten} the current tenant's lease; with monotone clocks the
     worst a zombie can do is extend it by one lease — benign, the
     sweep gets it next round.  Renew at cadence < lease/2: the
     read-renewed / CAS-word pair in [sweep] is the classic lease race
     and needs the standard slack. *)
  let renew t ticket ~now =
    if Atomic.get t.words.(ticket.slot) <> ticket.token then false
    else begin
      let r = Atomic.get t.renewed.(ticket.slot) in
      if now > r then ignore (Atomic.compare_and_set t.renewed.(ticket.slot) r now);
      true
    end

  let enter_room t ~room =
    if room <= 0 then false
    else if Atomic.fetch_and_add t.waiters 1 < room then true
    else begin
      Atomic.decr t.waiters;
      false
    end

  let leave_room t = Atomic.decr t.waiters
  let waiting t = Atomic.get t.waiters

  let metrics ?labels t =
    Obs.Admission.metrics ?labels t.events
    @ [
        Obs.gauge ?labels "arc_admission_live"
          ~help:"Tickets currently held against the gate"
          (float_of_int (live t));
        Obs.gauge ?labels "arc_admission_high_water"
          ~help:"Maximum simultaneous tickets ever held"
          (float_of_int (high_water t));
        Obs.gauge ?labels "arc_admission_waiting"
          ~help:"Arrivals currently parked in the bounded waiting room"
          (float_of_int (waiting t));
      ]
end

(* The gate over a concrete register: a [Pool] plus the persistent
   handles that make leased identities safe against the presence
   ledger.  [base] is the first reader identity the gate owns —
   identities [base, base + capacity) must be reserved for it at
   [R.create ~readers] time and never claimed directly. *)
module Make (R : RI.S) = struct
  type ticket = Pool.ticket

  type t = {
    pool : Pool.t;
    handles : R.reader array;
    base : int;
    room : int;
    now : unit -> int;
    sleep : int -> unit;
    on_release : (unit -> unit) option;
  }

  let create ?(room = 0) ?(lease = 0) ?on_release ~now ~sleep ~base ~capacity reg =
    if base < 0 then invalid_arg (Printf.sprintf "Admission.create: base = %d" base);
    if room < 0 then invalid_arg (Printf.sprintf "Admission.create: room = %d" room);
    {
      pool = Pool.create ~lease ~capacity ();
      (* Built once, never rebuilt: handle [k] is the one immortal
         reader the presence ledger sees for identity [base + k],
         whatever succession of tenants holds its ticket. *)
      handles = Array.init capacity (fun k -> R.reader reg (base + k));
      base;
      room;
      now;
      sleep;
      on_release;
    }

  let pool t = t.pool
  let capacity t = Pool.capacity t.pool
  let live t = Pool.live t.pool
  let high_water t = Pool.high_water t.pool
  let metrics ?labels t = Pool.metrics ?labels t.pool
  let admit t = Pool.admit t.pool ~now:(t.now ())

  (* Bounded waiting room: park, sleep the longer of the verdict's
     suggested delay and a growing jittered backoff, re-try, give up at
     the deadline.  Blocking is opt-in here — the gate's own verdicts
     stay wait-free. *)
  let admit_wait ?deadline t =
    match admit t with
    | RI.Admitted _ as a -> a
    | RI.Backpressured bp0 as refused ->
      if not (Pool.enter_room t.pool ~room:t.room) then refused
      else begin
        let bo = Backoff.create ~seed:(t.now () + 1) () in
        let expired () =
          match deadline with Some d -> t.now () >= d | None -> false
        in
        let rec wait bp =
          t.sleep (max bp.RI.retry_after (Backoff.next bo));
          match Pool.admit t.pool ~now:(t.now ()) with
          | RI.Admitted _ as a ->
            Pool.leave_room t.pool;
            a
          | RI.Backpressured bp' ->
            if expired () then begin
              Pool.leave_room t.pool;
              RI.Backpressured bp'
            end
            else wait bp'
        in
        wait bp0
      end

  let reader t (ticket : ticket) = t.handles.(ticket.Pool.slot)
  let identity t (ticket : ticket) = t.base + ticket.Pool.slot
  let renew t ticket = Pool.renew t.pool ticket ~now:(t.now ())

  let released t n =
    if n && t.on_release <> None then (Option.get t.on_release) ();
    n

  let depart t ticket = released t (Pool.depart t.pool ticket)

  let sweep t =
    let n = Pool.sweep t.pool ~now:(t.now ()) in
    ignore (released t (n > 0));
    n

  (* Per-read admission guard for [Session.create ?admission]: [None]
     while the ticket is live, the current pressure once the lease
     sweep has revoked it — the session then degrades instead of
     reading through an identity someone else now owns. *)
  let guard t ticket () =
    if Pool.holds t.pool ticket then None else Some (Pool.pressure t.pool ~now:(t.now ()))
end

(* Per-shard gates for the register fabric: one [Pool] per shard,
   admission is all-or-rollback so a scanner never holds a partial set
   of shard identities (which would deadlock-by-leak the shards it did
   get under sustained churn). *)
module Shards = struct
  type t = { pools : Pool.t array }

  let create pools =
    if Array.length pools = 0 then invalid_arg "Admission.Shards.create: no pools";
    { pools }

  let pools t = t.pools
  let shards t = Array.length t.pools

  let admit_all t ~now =
    let n = Array.length t.pools in
    let tickets = Array.make n None in
    let rec go i =
      if i = n then
        RI.Admitted (Array.map (fun o -> Option.get o) tickets)
      else
        match Pool.admit t.pools.(i) ~now with
        | RI.Admitted tk ->
          tickets.(i) <- Some tk;
          go (i + 1)
        | RI.Backpressured bp ->
          for j = i - 1 downto 0 do
            ignore (Pool.depart t.pools.(j) (Option.get tickets.(j)))
          done;
          RI.Backpressured bp
    in
    go 0

  let depart_all t tks =
    if Array.length tks <> Array.length t.pools then
      invalid_arg "Admission.Shards.depart_all: ticket count <> shard count";
    let freed = ref 0 in
    Array.iteri (fun i tk -> if Pool.depart t.pools.(i) tk then incr freed) tks;
    !freed
end
