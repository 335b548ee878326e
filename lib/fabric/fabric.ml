(* Sharded register fabric with wait-free atomic cross-shard
   snapshots (ISSUE 6).

   One (1,N) register per shard — any algorithm exposing the
   {!Arc_core.Register_intf.STAMPED} capability slots in — aggregated
   into a single keyed store whose [snapshot] returns a vector of
   shard values that were all simultaneously published at some instant
   within the snapshot's interval.  The construction is the classic
   double collect with modified-twice helping (Afek et al.), adapted
   to the repository's stamped registers:

   - {b Collect} reads every shard once with [read_stamped], recording
     value and publish stamp.
   - {b Probe pass} re-reads only the stamps ([probe_stamp] — two
     plain loads per shard, no RMW, no payload copy).  If every stamp
     still matches its collected value, all collected values were
     simultaneously published at the pass start: stamps are strictly
     monotone per register, so a matching probe certifies the shard
     publishes the collected value at probe time, and all probes of
     the pass happen after all (re)collects — the vector was intact
     throughout [last re-collect, first probe].
   - {b Modified twice ⇒ borrow.}  A shard whose observed stamp grew
     twice during the scan identifies a writer whose second write was
     {e invoked after the scan began}.  That writer observed the
     scanner's announcement and deposited a full snapshot of its own
     (taken entirely within this scan's interval) before publishing —
     the scanner adopts the deposit instead of collecting further.

   {b Lazy helping.}  Textbook helping embeds a snapshot in every
   update; here writers consult a substrate counter [active_scans] and
   only produce deposits while a scan is announced, so the write fast
   path (no scanner active) costs one extra load.  Deposits are
   immutable host-heap records published through an [Atomic.t] pointer
   per writer — payload vectors cannot live in substrate words, which
   confines the fabric to a single process (shards themselves may use
   any substrate, including shared memory; only the helping channel is
   heap-local).

   {b Wait-freedom bound.}  Each failed probe pass either increments
   some shard's observed-change count or catches a previously counted
   in-preparation stamp up to its publication (at most one such pass
   per counted change — see [attempt]).  Change counts reach 2 on some
   shard after at most [shards + 1] counted changes, and a shard
   counted twice always has a qualifying deposit (proved in
   DESIGN.md §8), so a snapshot runs at most [2·shards + 3] passes of
   O(shards) plain loads each — bounded by fabric size, independent of
   scheduling. *)

module Register_intf = Arc_core.Register_intf
module Obs = Arc_obs.Obs

(* A certified snapshot's typed failure: the retry budget was spent
   without certifying a round — because the fabric's configuration
   epoch moved inside the probe window (some shard changed leaders
   mid-snapshot; [r_now > r_opened]), or because epoch-matched
   borrowing starved the final round's dirty-pass cap without an
   observed epoch move ([r_now = r_opened]; elections elsewhere kept
   rejecting the deposits the counting bound would otherwise adopt).
   Either way the vector might span two reigns; the caller decides
   whether to re-issue the snapshot or surface the verdict, and
   nothing is silently served. *)
type reign_change = { r_opened : int; r_now : int }

(* Process-wide reign telemetry.  Unlike the per-fabric scan cells
   these are [Atomic.t]s: the epoch gauge and handoff counter are
   written by whichever thread completes a takeover
   ({!Arc_resilience.Reign} bumps them through this module), and the
   retry/changed counters by any scanner domain — multi-writer, off
   every fast path (a handoff or a certification failure, never a
   clean snapshot), so the RMW cost is irrelevant.  Same precedent as
   the admission gate's counters. *)
module Reign_tel = struct
  let epoch = Atomic.make 0
  let handoffs = Atomic.make 0
  let retries = Atomic.make 0
  let starved = Atomic.make 0
  let changed = Atomic.make 0
end

let reign_metrics () =
  let open Obs in
  [
    gauge "arc_reign_epoch"
      ~help:
        "Fabric configuration epoch as last observed by this process (bumped \
         once per completed leader handoff)"
      (float_of_int (Atomic.get Reign_tel.epoch));
    counter "arc_reign_handoffs_total"
      ~help:"Shard leader handoffs completed by this process"
      (Atomic.get Reign_tel.handoffs);
    counter "arc_reign_snapshot_reign_retries_total"
      ~help:
        "Certified snapshot rounds re-opened because the configuration epoch \
         was observed to move inside the probe window"
      (Atomic.get Reign_tel.retries);
    counter "arc_reign_snapshot_starved_reopens_total"
      ~help:
        "Certified snapshot rounds re-opened at the dirty-pass cap with the \
         configuration epoch unmoved (epoch-matched borrowing starved the \
         counting bound)"
      (Atomic.get Reign_tel.starved);
    counter "arc_reign_changed_total"
      ~help:
        "Certified snapshots that exhausted their retry budget and returned \
         the typed Reign_changed verdict"
      (Atomic.get Reign_tel.changed);
  ]

let reset_reign_metrics () =
  List.iter
    (fun c -> Atomic.set c 0)
    [
      Reign_tel.epoch;
      Reign_tel.handoffs;
      Reign_tel.retries;
      Reign_tel.starved;
      Reign_tel.changed;
    ]

module Make (R : Register_intf.STAMPED) = struct
  module M = R.Mem

  (* A snapshot vector.  Direct results alias the scanner's scratch
     (stable until that scanner's next snapshot); borrowed results are
     immutable deposits shared by reference.  [s_epoch] is the
     configuration epoch the snapshot was certified under — 0 for
     plain (uncertified) snapshots. *)
  type snap = {
    s_stamps : int array;
    s_lens : int array;
    s_data : int array array;
    s_borrowed : bool;
    s_epoch : int;
  }

  type t = {
    regs : R.t array;
    nwriters : int;
    nreaders : int;
    capacity : int;
    active_scans : M.atomic;  (* scanners (and helping writers) in flight *)
    deposits : snap option Atomic.t array;  (* per writer: latest helping snapshot *)
    scan_stats : Obs.Scan.t;  (* readers + writers cells, writers after readers *)
    shard_writes : Obs.Group.t;  (* per shard; single-writer per cell *)
    deposit_counts : Obs.Group.t;  (* per writer *)
    mutable reign : M.atomic option;
        (* fabric-wide configuration epoch word; attached, not created,
           because it lives in the substrate's reign table *)
    mutable reign_max_retries : int;
  }

  (* A scanner context: per-shard reader handles plus collect scratch.
     Writers embed one (with a reader identity above the public range)
     for their helping collects. *)
  type scanner = {
    fab : t;
    handles : R.reader array;
    stamps : int array;  (* per shard: stamp of the collected value *)
    high : int array;  (* per shard: largest stamp observed this scan *)
    changes : int array;  (* per shard: counted stamp growths this scan *)
    lens : int array;
    data : int array array;
    c_direct : Obs.Cell.t;
    c_borrowed : Obs.Cell.t;
    c_retries : Obs.Cell.t;
  }

  type writer = { ctx : scanner; wid : int; c_deposits : Obs.Cell.t; w_writes : Obs.Cell.t array }

  let algorithm = Printf.sprintf "fabric(%s)" R.algorithm

  let shards t = Array.length t.regs
  let writers t = t.nwriters
  let readers t = t.nreaders
  let capacity t = t.capacity

  (* Static shard ownership: writer [s mod writers] owns shard [s].
     The scanner's borrow rule depends on knowing which deposit cell
     the second modifier of a shard publishes through, so ownership is
     part of the fabric's construction, not caller convention. *)
  let owner_of t s = s mod t.nwriters

  (* Wrap pre-built registers into a fabric.  The registers must each
     have been provisioned with at least [readers + writers]
     identities (identity [readers + w] is writer [w]'s helping
     handle) — [create] guarantees this; callers bringing their own
     registers (e.g. {!Arc_shm.Shm_arc.create_fabric} instances, whose
     buffers live in a shared mapping) owe the same. *)
  let of_registers regs ~writers ~readers ~capacity =
    let shards = Array.length regs in
    if shards < 1 then invalid_arg "Fabric.of_registers: need at least one shard";
    if writers < 1 || writers > shards then
      invalid_arg
        (Printf.sprintf
           "Fabric.of_registers: writers = %d (need 1 <= writers <= shards)"
           writers);
    if readers < 1 then invalid_arg "Fabric.of_registers: need at least one reader";
    let per_reg = readers + writers in
    {
      regs;
      nwriters = writers;
      nreaders = readers;
      capacity;
      active_scans = M.atomic_contended 0;
      deposits = Array.init writers (fun _ -> Atomic.make None);
      scan_stats = Obs.Scan.create ~scanners:per_reg;
      shard_writes =
        Obs.Group.create ~name:"fabric_shard_writes_total"
          ~help:"Writes published per shard" shards;
      deposit_counts =
        Obs.Group.create ~name:"fabric_deposits_total"
          ~help:"Helping snapshots deposited per writer" writers;
      reign = None;
      (* One completed election per shard is the most that can overlap
         a single snapshot's interval without the epoch check catching
         the same handoff twice; the budget is overridable but this
         default makes the bound a function of fabric size. *)
      reign_max_retries = shards;
    }

  let create ~shards ~writers ~readers ~capacity ~init =
    if shards < 1 then invalid_arg "Fabric.create: need at least one shard";
    if writers < 1 || writers > shards then
      invalid_arg
        (Printf.sprintf "Fabric.create: writers = %d (need 1 <= writers <= shards)"
           writers);
    if readers < 1 then invalid_arg "Fabric.create: need at least one reader";
    (* Each register hosts the public readers plus one identity per
       writer thread (for helping collects): identities scale with
       thread counts, not with shards — a fabric of thousands of
       shards costs readers + writers + 2 slots per shard, never
       shards². *)
    let per_reg = readers + writers in
    let regs =
      Array.init shards (fun _ -> R.create ~readers:per_reg ~capacity ~init)
    in
    of_registers regs ~writers ~readers ~capacity

  let attach_reign ?max_retries fab ~config =
    fab.reign <- Some config;
    match max_retries with
    | Some r -> fab.reign_max_retries <- max 0 r
    | None -> ()

  let reign_attached fab = match fab.reign with Some _ -> true | None -> false

  let make_ctx fab identity =
    let n = Array.length fab.regs in
    {
      fab;
      handles = Array.map (fun r -> R.reader r identity) fab.regs;
      stamps = Array.make n 0;
      high = Array.make n 0;
      changes = Array.make n 0;
      lens = Array.make n 0;
      data = Array.init n (fun _ -> Array.make fab.capacity 0);
      c_direct = Obs.Scan.direct fab.scan_stats identity;
      c_borrowed = Obs.Scan.borrowed fab.scan_stats identity;
      c_retries = Obs.Scan.retries fab.scan_stats identity;
    }

  let scanner fab i =
    if i < 0 || i >= fab.nreaders then
      invalid_arg
        (Printf.sprintf "Fabric.scanner: identity %d out of range [0, %d)" i
           fab.nreaders);
    make_ctx fab i

  let writer fab w =
    if w < 0 || w >= fab.nwriters then
      invalid_arg
        (Printf.sprintf "Fabric.writer: identity %d out of range [0, %d)" w
           fab.nwriters);
    let w_writes =
      Array.init (Array.length fab.regs) (fun s ->
          Obs.Group.cell fab.shard_writes s)
    in
    {
      ctx = make_ctx fab (fab.nreaders + w);
      wid = w;
      c_deposits = Obs.Group.cell fab.deposit_counts w;
      w_writes;
    }

  (* Plain per-shard read through the scanner's handle — the fabric's
     point-read path, unchanged register semantics. *)
  let read ctx ~shard ~dst = R.read_into ctx.handles.(shard) ~dst

  let read_with ctx ~shard ~f = R.read_with ctx.handles.(shard) ~f

  (* One collect of shard [s]: value into scratch, stamp recorded as
     both the collected baseline and (if larger) the high-water
     mark. *)
  let collect ctx s =
    let stamp, () =
      R.read_stamped ctx.handles.(s) ~f:(fun buf len ->
          M.read_words buf ~dst:ctx.data.(s) ~len;
          ctx.lens.(s) <- len)
    in
    ctx.stamps.(s) <- stamp;
    if stamp > ctx.high.(s) then begin
      ctx.changes.(s) <- ctx.changes.(s) + 1;
      ctx.high.(s) <- stamp
    end

  (* Announce the scan and take the initial collect.  The announcement
     must precede the first collect: a writer invoked after any
     observation this scan makes must see [active_scans > 0]. *)
  let announce ctx =
    let fab = ctx.fab in
    M.incr fab.active_scans;
    Array.fill ctx.changes 0 (Array.length ctx.changes) 0;
    Array.fill ctx.high 0 (Array.length ctx.high) 0;
    for s = 0 to Array.length fab.regs - 1 do
      ctx.changes.(s) <- -1 (* baseline collect is not a change *);
      collect ctx s
    done

  let finish ctx = ignore (M.fetch_and_add ctx.fab.active_scans (-1))

  (* One probe pass over all shards.  A mismatching probe re-collects
     that shard; a stamp growing {e beyond} the scan's high-water mark
     counts as a change (strictly-greater comparison: a probe that
     races a slot recycle can observe a stamp still in preparation,
     and its eventual publication must not be double-counted).  A
     shard counted twice names a writer whose second write began after
     this scan's announcement — its deposit cell necessarily holds a
     snapshot taken within this scan (DESIGN.md §8); adopt it, if
     [accept] qualifies it (certified scans only borrow deposits
     certified under the same configuration epoch — see DESIGN.md
     §8b). *)
  let attempt ctx ~accept =
    let fab = ctx.fab in
    let n = Array.length fab.regs in
    let dirty = ref false in
    let found = ref None in
    let s = ref 0 in
    while !found = None && !s < n do
      let p = R.probe_stamp fab.regs.(!s) in
      if p <> ctx.stamps.(!s) then begin
        dirty := true;
        if p > ctx.high.(!s) then begin
          ctx.changes.(!s) <- ctx.changes.(!s) + 1;
          ctx.high.(!s) <- p
        end;
        collect ctx !s;
        if ctx.changes.(!s) >= 2 then
          match Atomic.get fab.deposits.(owner_of fab !s) with
          | Some d when accept d -> found := Some d
          | _ -> ()
      end;
      incr s
    done;
    match !found with
    | Some d -> `Borrowed d
    | None -> if !dirty then `Dirty else `Clean

  let direct_of ctx ~epoch =
    {
      s_stamps = ctx.stamps;
      s_lens = ctx.lens;
      s_data = ctx.data;
      s_borrowed = false;
      s_epoch = epoch;
    }

  (* The scan loop shared by public snapshots and writers' helping
     collects.  Structurally unbounded; bounded in fact by the
     counting argument above (≤ 2·shards + 3 passes). *)
  let scan ctx =
    announce ctx;
    Fun.protect
      ~finally:(fun () -> finish ctx)
      (fun () ->
        let rec go () =
          match attempt ctx ~accept:(fun _ -> true) with
          | `Clean ->
            ctx.c_direct.Obs.Cell.v <- ctx.c_direct.Obs.Cell.v + 1;
            direct_of ctx ~epoch:0
          | `Borrowed d ->
            ctx.c_borrowed.Obs.Cell.v <- ctx.c_borrowed.Obs.Cell.v + 1;
            d
          | `Dirty ->
            ctx.c_retries.Obs.Cell.v <- ctx.c_retries.Obs.Cell.v + 1;
            go ()
        in
        go ())

  let snapshot ctx = scan ctx

  (* Reign-certified scan (DESIGN.md §8b).  The configuration epoch is
     loaded before the round's first probe pass ([opened]) and
     re-loaded after the clean pass ([now]): the epoch is bumped by an
     elected successor {e after} its takeover and {e before} its first
     publish, so [now = opened] proves no handoff completed inside the
     probe window, and every collected value was published by a reign
     ≤ [opened].  On the no-election fast path this costs exactly two
     extra plain loads over [scan].

     Borrowing is epoch-matched: a deposit certifies its own vector
     only under the epoch {e its} scan opened, so a certified scan
     adopts only deposits with [s_epoch = opened].  That filter can
     starve the modified-twice counting bound — writers whose own
     helping certification failed deposit epoch-0 fallbacks the filter
     rejects — so each round also caps its dirty passes at the classic
     2·shards + 3 bound and re-opens when the cap hits.  Reopens are
     counted separately by cause: an observed epoch move
     ([Reign_tel.retries]) versus a cap hit with the epoch unmoved
     ([Reign_tel.starved]).  Rounds are bounded by
     [reign_max_retries]; an exhausted budget returns the typed
     {!reign_change} verdict — whose [r_now] equals [r_opened] when
     the final round starved rather than saw the epoch move — rather
     than a vector that might span two reigns.  Total work is at most
     [(max_retries + 1) · (2·shards + 3)] passes. *)
  let scan_certified ctx ~config ~max_retries =
    let fab = ctx.fab in
    let pass_cap = (2 * Array.length fab.regs) + 3 in
    announce ctx;
    Fun.protect
      ~finally:(fun () -> finish ctx)
      (fun () ->
        let rec round tries =
          let opened = M.load config in
          let rec go passes =
            match attempt ctx ~accept:(fun d -> d.s_epoch = opened) with
            | `Clean ->
                let now = M.load config in
                if now = opened then begin
                  ctx.c_direct.Obs.Cell.v <- ctx.c_direct.Obs.Cell.v + 1;
                  Ok (direct_of ctx ~epoch:opened)
                end
                else reopen tries opened now
            | `Borrowed d ->
                ctx.c_borrowed.Obs.Cell.v <- ctx.c_borrowed.Obs.Cell.v + 1;
                Ok d
            | `Dirty ->
                ctx.c_retries.Obs.Cell.v <- ctx.c_retries.Obs.Cell.v + 1;
                if passes >= pass_cap then reopen tries opened (M.load config)
                else go (passes + 1)
          in
          go 1
        and reopen tries opened now =
          if tries < max_retries then begin
            if now <> opened then Atomic.incr Reign_tel.retries
            else Atomic.incr Reign_tel.starved;
            round (tries + 1)
          end
          else begin
            Atomic.incr Reign_tel.changed;
            Error { r_opened = opened; r_now = now }
          end
        in
        round 0)

  let snapshot_certified ctx =
    let fab = ctx.fab in
    match fab.reign with
    | None ->
        invalid_arg
          "Fabric.snapshot_certified: no configuration epoch attached \
           (attach_reign first)"
    | Some config ->
        scan_certified ctx ~config ~max_retries:fab.reign_max_retries

  (* Negative-control arm: one collect pass, no announcement, no
     probe.  Deliberately non-atomic — writers racing the collect
     leave torn vectors behind — so harnesses can prove the fabric
     checker convicts exactly what [snapshot] prevents.  Never a real
     read path. *)
  let snapshot_unvalidated ctx =
    for s = 0 to Array.length ctx.fab.regs - 1 do
      collect ctx s
    done;
    direct_of ctx ~epoch:0

  (* Freeze a scan result into an immutable deposit.  A direct result
     aliases the writer's scratch (about to be reused), so it is
     copied; a borrowed result is already immutable and is re-shared
     as is — its scan interval nests inside ours, which keeps it a
     valid deposit for any scanner ours qualifies for. *)
  let freeze snap =
    if snap.s_borrowed then snap
    else
      {
        s_stamps = Array.copy snap.s_stamps;
        s_lens = Array.copy snap.s_lens;
        s_data = Array.map Array.copy snap.s_data;
        s_borrowed = true;
        s_epoch = snap.s_epoch;
      }

  (* Publish [src] to [shard].  The helping check is the write's only
     snapshot-related cost when no scan is announced: one substrate
     load.  While scans are active, the writer takes a full scan of
     its own (announced, so other writers keep helping it) and
     deposits the frozen result {e before} publishing — a scanner that
     observes this write's stamp is therefore guaranteed to find the
     deposit. *)
  let write w ~shard ~src ~len =
    let fab = w.ctx.fab in
    if shard < 0 || shard >= Array.length fab.regs then
      invalid_arg
        (Printf.sprintf "Fabric.write: shard %d out of range [0, %d)" shard
           (Array.length fab.regs));
    if owner_of fab shard <> w.wid then
      invalid_arg
        (Printf.sprintf "Fabric.write: shard %d is owned by writer %d, not %d"
           shard (owner_of fab shard) w.wid);
    if M.load fab.active_scans > 0 then begin
      (* With a reign attached, the helping scan runs certified so the
         deposit carries the epoch scanners match against.  The cell
         must be overwritten before EVERY publish that observed an
         announced scan — the borrow rule's freshness argument is that
         a shard counted twice implies its owner's deposit was frozen
         inside the counting scan's window — so a helping scan that
         itself hits Reign_changed falls back to an uncertified plain
         scan: plain snapshots keep their freshness and the 2n+3
         counting bound, while certified scans reject the epoch-0
         deposit through their epoch-match filter (the configuration
         epoch starts at 1) and surface the typed verdict through
         their own retry budget. *)
      let snap =
        match fab.reign with
        | None -> scan w.ctx
        | Some config -> (
            match
              scan_certified w.ctx ~config ~max_retries:fab.reign_max_retries
            with
            | Ok snap -> snap
            | Error (_ : reign_change) -> scan w.ctx)
      in
      Atomic.set fab.deposits.(w.wid) (Some (freeze snap));
      Obs.Cell.incr w.c_deposits
    end;
    R.write fab.regs.(shard) ~src ~len;
    let c = w.w_writes.(shard) in
    c.Obs.Cell.v <- c.Obs.Cell.v + 1

  (* {2 Snapshot accessors} *)

  let shard_len snap s = snap.s_lens.(s)
  let shard_stamp snap s = snap.s_stamps.(s)
  let shard_word snap s i = snap.s_data.(s).(i)
  let borrowed snap = snap.s_borrowed
  let snap_epoch snap = snap.s_epoch

  let shard_copy snap s ~dst =
    let len = snap.s_lens.(s) in
    if Array.length dst < len then invalid_arg "Fabric.shard_copy: dst too short";
    Arc_util.Words.blit snap.s_data.(s) 0 dst 0 len;
    len

  (* {2 Telemetry} *)

  let snapshots_direct fab = Obs.Scan.direct_count fab.scan_stats
  let snapshots_borrowed fab = Obs.Scan.borrowed_count fab.scan_stats
  let snapshot_retries fab = Obs.Scan.retry_count fab.scan_stats
  let deposits_made fab = Obs.Group.value fab.deposit_counts
  let shard_writes fab s = Obs.Cell.get (Obs.Group.cell fab.shard_writes s)

  let metrics fab =
    let per group =
      Array.to_list
        (Array.mapi
           (fun i v ->
             Obs.counter (Obs.Group.name group)
               ~labels:[ ("shard", string_of_int i) ]
               ~help:(Obs.Group.help group) v)
           (Obs.Group.per_domain group))
    in
    Obs.gauge "fabric_shards" ~help:"Shards in the fabric"
      (float_of_int (Array.length fab.regs))
    :: Obs.counter "fabric_snapshots_direct_total"
         ~help:"Snapshots certified by a clean probe pass"
         (snapshots_direct fab)
    :: Obs.counter "fabric_snapshots_borrowed_total"
         ~help:"Snapshots served from a writer's helping deposit"
         (snapshots_borrowed fab)
    :: Obs.counter "fabric_snapshot_retries_total"
         ~help:"Probe passes that failed and forced a re-collect"
         (snapshot_retries fab)
    :: Obs.counter "fabric_deposits_total"
         ~help:"Helping snapshots deposited by writers" (deposits_made fab)
    :: per fab.shard_writes
end
