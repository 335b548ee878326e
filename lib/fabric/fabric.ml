(* Sharded register fabric with wait-free atomic cross-shard
   snapshots (ISSUE 6).

   One (1,N) register per shard — any algorithm exposing the
   {!Arc_core.Register_intf.STAMPED} capability slots in — aggregated
   into a single keyed store whose [snapshot_certified] returns a
   vector of shard values that were all simultaneously published at
   some instant within the snapshot's interval, by reigns no later
   than the configuration epoch it was certified under.  The
   construction is the classic double collect with modified-twice
   helping (Afek et al.), adapted to the repository's stamped
   registers:

   - {b Collect} reads every shard once with [read_stamped_into] and
     [view_stamp], recording value and publish stamp.
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
   path (no scanner active) costs one extra load.  Each writer deposits
   through its own ARC register ([Deposit], host heap): a deposit is
   one register write of the flattened snapshot, a borrow one read on
   the scanner's own handle, which pins the deposit until that
   scanner's next snapshot.  ARC's atomicity carries the freshness
   argument and its N + 2 slots bound the channel's memory (DESIGN.md
   §8).  The helping channel is heap-local, which confines the fabric
   to a single process; the shards themselves may use any substrate,
   including shared memory.

   {b One epoch per fabric.}  Every fabric owns a configuration epoch
   word from birth (value 1; [attach_reign] swaps in a shared word,
   e.g. a shm reign table's), so the certified scan is the only scan:
   a fabric nobody elects over simply never sees its epoch move.

   {b No allocation.}  Collects copy into per-scanner scratch, the
   pass loops are closure-free top-level functions, and every result a
   scanner can return — direct or borrowed, bare or wrapped in [Ok] —
   is preallocated per scanner, so a snapshot or a helping deposit
   allocates nothing in the steady state.

   {b Wait-freedom bound.}  Each failed probe pass either increments
   some shard's observed-change count or catches a previously counted
   in-preparation stamp up to its publication (at most one such pass
   per counted change — see [attempt]).  Change counts reach 2 on some
   shard after at most [shards + 1] counted changes, and a shard
   counted twice always has a qualifying deposit while the epoch holds
   still (proved in DESIGN.md §8), so a snapshot runs at most
   [2·shards + 3] passes of O(shards) plain loads each — bounded by
   fabric size, independent of scheduling.  Under elections each round
   is capped at that bound and a snapshot runs at most
   [max_retries + 1] rounds (DESIGN.md §8b). *)

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
   written by whichever thread completes a takeover (every
   {!Arc_resilience.Election} campaign bumps them), and the
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
        "Highest configuration epoch any handoff in this process reached \
         (raised by each completed leader handoff)"
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

(* The helping channel: one ARC register per writer on the host heap.
   A deposit is one write of a flattened snapshot, laid out as

     [epoch; stamp_0; len_0; data_0 ...; stamp_1; len_1; ...]

   with a fixed stride of [2 + capacity] words per shard.  [epoch] is
   the configuration epoch the deposited vector was certified under.
   Every configuration word starts at 1 (enforced by [attach_reign]),
   so epoch 0 never matches a scan: it is the single "never borrow"
   mark, carried by the initial deposit and by the one-word
   [never_borrow] marker a writer deposits when its own helping scan
   fails certification.

   Slot storage is elastic: a fresh channel holds only the one-word
   initial value, and a slot gets its deposit-sized buffer when a
   helping write first fills it, so a fabric whose writers never help
   pays nothing for the channel.  The fabric never sets a lease, so no
   slot's storage is ever revoked and every borrow is a wait-free
   read. *)
module Deposit = Arc_core.Arc_dynamic.Make (Arc_mem.Real_mem)

let dep_epoch = 0
let dep_header = 1
let never_borrow = [| 0 |]

module Make (R : Register_intf.STAMPED) = struct
  module M = R.Mem

  (* A direct result: the scanner's collect scratch, plus the epoch it
     was certified under (0 for the uncertified negative control). *)
  type direct = {
    stamps : int array;  (* per shard: stamp of the collected value *)
    lens : int array;
    data : int array array;
    mutable epoch : int;
  }

  (* A borrowed result: the deposit view this scanner's handle pins in
     the lending writer's register. *)
  type lent = { nshards : int; stride : int; mutable view : int array }

  (* A snapshot vector.  Both kinds are preallocated per scanner and
     stay stable until that scanner's next snapshot: a direct one
     aliases the scratch, a borrowed one a deposit slot that ARC never
     recycles while this scanner's handle is subscribed to it. *)
  type snap = Direct of direct | Borrowed of lent

  type t = {
    regs : R.t array;
    nwriters : int;
    nreaders : int;
    capacity : int;
    active_scans : M.atomic;  (* scanners (and helping writers) in flight *)
    deposits : Deposit.t array;  (* per writer: its helping channel *)
    dep_len : int;  (* words in one deposit *)
    scan_stats : Obs.Scan.t;  (* readers + writers cells, writers after readers *)
    shard_writes : Obs.Group.t;  (* per shard; single-writer per cell *)
    deposit_counts : Obs.Group.t;  (* per writer *)
    mutable config : M.atomic;
        (* fabric-wide configuration epoch word: the fabric's own until
           [attach_reign] swaps in a shared one (a reign table's) *)
    mutable reign_max_retries : int;
  }

  (* A scanner context: per-shard and per-deposit reader handles,
     collect scratch and the preallocated results.  Writers embed one
     (with a reader identity above the public range) for their helping
     collects. *)
  type scanner = {
    fab : t;
    handles : R.reader array;
    lenders : Deposit.reader array;  (* per writer: this identity's deposit handle *)
    high : int array;  (* per shard: largest stamp observed this scan *)
    changes : int array;  (* per shard: counted stamp growths this scan *)
    dir : direct;
    lent : lent;
    direct_snap : snap;
    ok_direct : (snap, reign_change) result;
    ok_lent : (snap, reign_change) result;
    c_direct : Obs.Cell.t;
    c_borrowed : Obs.Cell.t;
    c_retries : Obs.Cell.t;
  }

  type writer = {
    ctx : scanner;
    wid : int;
    staging : int array;  (* a direct helping snapshot, flattened for deposit *)
    c_deposits : Obs.Cell.t;
    w_writes : Obs.Cell.t array;
  }

  let algorithm = Printf.sprintf "fabric(%s)" R.algorithm

  let shards t = Array.length t.regs
  let writers t = t.nwriters
  let readers t = t.nreaders
  let capacity t = t.capacity

  (* Static shard ownership: writer [s mod writers] owns shard [s].
     The scanner's borrow rule depends on knowing which deposit
     register the second modifier of a shard publishes through, so
     ownership is part of the fabric's construction, not caller
     convention. *)
  let owner_of t s = s mod t.nwriters

  (* Wrap pre-built registers into a fabric.  The registers must each
     have been provisioned with at least [readers + writers]
     identities (identity [readers + w] is writer [w]'s helping
     handle) — [create] guarantees this; callers bringing their own
     registers (e.g. the [regs] of an {!Arc_shm.Shm_arc.create}
     instance, whose buffers live in a shared mapping) owe the same.  The deposit
     registers use the same identities. *)
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
    let dep_len = dep_header + (shards * (2 + capacity)) in
    {
      regs;
      nwriters = writers;
      nreaders = readers;
      capacity;
      active_scans = M.atomic_contended 0;
      deposits =
        Array.init writers (fun _ ->
            Deposit.create ~readers:per_reg ~capacity:dep_len ~init:never_borrow);
      dep_len;
      scan_stats = Obs.Scan.create ~scanners:per_reg;
      shard_writes =
        Obs.Group.create ~name:"fabric_shard_writes_total"
          ~help:"Writes published per shard" shards;
      deposit_counts =
        Obs.Group.create ~name:"fabric_deposits_total"
          ~help:"Helping snapshots deposited per writer" writers;
      config = M.atomic_contended 1;
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

  (* Swap in a shared configuration word.  Epoch 0 is the deposits'
     "never borrow" mark, so a word that could certify a scan at 0
     would let scanners adopt the initial deposit or a failure
     marker. *)
  let attach_reign ?max_retries fab ~config =
    let e = M.load config in
    if e < 1 then
      invalid_arg
        (Printf.sprintf
           "Fabric.attach_reign: configuration epoch reads %d (need >= 1)" e);
    fab.config <- config;
    match max_retries with
    | Some r -> fab.reign_max_retries <- max 0 r
    | None -> ()

  let make_ctx fab identity =
    let n = Array.length fab.regs in
    let dir =
      {
        stamps = Array.make n 0;
        lens = Array.make n 0;
        data = Array.init n (fun _ -> Array.make fab.capacity 0);
        epoch = 0;
      }
    in
    let lent = { nshards = n; stride = 2 + fab.capacity; view = [||] } in
    let direct_snap = Direct dir and lent_snap = Borrowed lent in
    {
      fab;
      handles = Array.map (fun r -> R.reader r identity) fab.regs;
      lenders = Array.map (fun d -> Deposit.reader d identity) fab.deposits;
      high = Array.make n 0;
      changes = Array.make n 0;
      dir;
      lent;
      direct_snap;
      ok_direct = Ok direct_snap;
      ok_lent = Ok lent_snap;
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
      staging = Array.make fab.dep_len 0;
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
    let d = ctx.dir in
    let h = ctx.handles.(s) in
    d.lens.(s) <- R.read_stamped_into h ~dst:d.data.(s);
    let stamp = R.view_stamp h in
    d.stamps.(s) <- stamp;
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

  (* Read writer [w]'s current deposit through this scanner's own
     handle and adopt it if it qualifies.  The read pins the deposit's
     slot until this handle's next read — at the earliest in this
     scanner's next snapshot — which is what keeps an adopted view
     stable however often its writer deposits again. *)
  let borrow ctx w ~epoch =
    let view, _ = Deposit.read_view ctx.lenders.(w) in
    if view.(dep_epoch) = epoch then begin
      ctx.lent.view <- view;
      true
    end
    else false

  (* One probe pass over all shards.  A mismatching probe re-collects
     that shard; a stamp growing {e beyond} the scan's high-water mark
     counts as a change (strictly-greater comparison: a probe that
     races a slot recycle can observe a stamp still in preparation,
     and its eventual publication must not be double-counted).  A
     shard counted twice names a writer whose second write began after
     this scan's announcement — its deposit register necessarily holds
     a snapshot taken within this scan, or the failure marker
     (DESIGN.md §8); adopt it if it was certified under [epoch], the
     scan's own configuration epoch (DESIGN.md §8b). *)
  let attempt ctx ~epoch =
    let fab = ctx.fab in
    let d = ctx.dir in
    let n = Array.length fab.regs in
    let dirty = ref false and lent = ref false in
    let s = ref 0 in
    while (not !lent) && !s < n do
      let p = R.probe_stamp fab.regs.(!s) in
      if p <> d.stamps.(!s) then begin
        dirty := true;
        if p > ctx.high.(!s) then begin
          ctx.changes.(!s) <- ctx.changes.(!s) + 1;
          ctx.high.(!s) <- p
        end;
        collect ctx !s;
        if ctx.changes.(!s) >= 2 then lent := borrow ctx (owner_of fab !s) ~epoch
      end;
      incr s
    done;
    if !lent then `Borrowed else if !dirty then `Dirty else `Clean

  (* The scan — the only one: reign-certified (DESIGN.md §8b), public
     snapshots and writers' helping collects alike.  The configuration
     epoch is loaded before the round's first probe pass ([opened]) and
     re-loaded after the clean pass ([now]): the epoch is bumped by an
     elected successor {e after} its takeover and {e before} its first
     publish, so [now = opened] proves no handoff completed inside the
     probe window, and every collected value was published by a reign
     ≤ [opened].  On the no-election fast path the epoch bracket costs
     two plain loads per snapshot.

     Borrowing is epoch-matched: a deposit certifies its own vector
     only under the epoch {e its} scan opened, so a scan adopts only
     deposits carrying [opened].  That filter can starve the
     modified-twice counting bound — writers whose own helping
     certification failed deposit the epoch-0 marker the filter
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
  let rec round ctx ~config ~max_retries tries =
    certified_pass ctx ~config ~max_retries tries ~opened:(M.load config) 1

  and certified_pass ctx ~config ~max_retries tries ~opened n =
    match attempt ctx ~epoch:opened with
    | `Clean ->
        let now = M.load config in
        if now = opened then begin
          Obs.Cell.incr ctx.c_direct;
          ctx.dir.epoch <- opened;
          ctx.ok_direct
        end
        else reopen ctx ~config ~max_retries tries ~opened ~now
    | `Borrowed ->
        Obs.Cell.incr ctx.c_borrowed;
        ctx.ok_lent
    | `Dirty ->
        Obs.Cell.incr ctx.c_retries;
        if n >= (2 * Array.length ctx.fab.regs) + 3 then
          reopen ctx ~config ~max_retries tries ~opened ~now:(M.load config)
        else certified_pass ctx ~config ~max_retries tries ~opened (n + 1)

  and reopen ctx ~config ~max_retries tries ~opened ~now =
    if tries < max_retries then begin
      if now <> opened then Atomic.incr Reign_tel.retries
      else Atomic.incr Reign_tel.starved;
      round ctx ~config ~max_retries (tries + 1)
    end
    else begin
      Atomic.incr Reign_tel.changed;
      Error { r_opened = opened; r_now = now }
    end

  let snapshot_certified ctx =
    let fab = ctx.fab in
    announce ctx;
    match
      round ctx ~config:fab.config ~max_retries:fab.reign_max_retries 0
    with
    | r ->
        finish ctx;
        r
    | exception e ->
        finish ctx;
        raise e

  (* Negative-control arm: one collect pass, no announcement, no
     probe.  Deliberately non-atomic — writers racing the collect
     leave torn vectors behind — so harnesses can prove the fabric
     checker convicts exactly what [snapshot_certified] prevents.
     Never a real read path. *)
  let snapshot_unvalidated ctx =
    for s = 0 to Array.length ctx.fab.regs - 1 do
      collect ctx s
    done;
    ctx.dir.epoch <- 0;
    ctx.direct_snap

  (* Deposit a helping snapshot: one ARC write to the writer's own
     deposit register.  A borrowed result is already a flat deposit —
     the lender's slot, pinned by this writer's handle — and is
     written as is: its scan interval nests inside ours, which keeps
     it a valid deposit for any scanner ours qualifies for.  A direct
     result is first flattened from the scratch into [staging]. *)
  let deposit w snap =
    let fab = w.ctx.fab in
    let src =
      match snap with
      | Borrowed b -> b.view
      | Direct d ->
          let st = w.staging and stride = 2 + fab.capacity in
          st.(dep_epoch) <- d.epoch;
          for s = 0 to Array.length fab.regs - 1 do
            let base = dep_header + (s * stride) in
            let len = d.lens.(s) in
            st.(base) <- d.stamps.(s);
            st.(base + 1) <- len;
            Arc_util.Words.blit d.data.(s) 0 st (base + 2) len
          done;
          st
    in
    Deposit.write fab.deposits.(w.wid) ~src ~len:fab.dep_len

  (* Publish [src] to [shard].  The helping check is the write's only
     snapshot-related cost when no scan is announced: one substrate
     load.  While scans are active, the writer takes a full scan of
     its own (announced, so other writers keep helping it) and
     deposits it {e before} publishing — a scanner that observes this
     write's stamp is therefore guaranteed to find the deposit. *)
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
      (* The helping scan is certified, so the deposit carries the
         epoch scanners match against.  The register must be written
         before EVERY publish that observed an announced scan — the
         borrow rule's freshness argument is that a shard counted
         twice implies its owner's deposit was taken inside the
         counting scan's window — so a helping scan that itself hits
         Reign_changed deposits the epoch-0 marker instead: no scanner
         can then adopt an older deposit whose epoch happens to match,
         and scanners surface the typed verdict through their own
         retry budget. *)
      (match snapshot_certified w.ctx with
      | Ok snap -> deposit w snap
      | Error (_ : reign_change) ->
          Deposit.write fab.deposits.(w.wid) ~src:never_borrow ~len:1);
      Obs.Cell.incr w.c_deposits
    end;
    R.write fab.regs.(shard) ~src ~len;
    Obs.Cell.incr w.w_writes.(shard)

  (* {2 Snapshot accessors} *)

  let check_shard snap s =
    let n = match snap with Direct d -> Array.length d.lens | Borrowed b -> b.nshards in
    if s < 0 || s >= n then
      invalid_arg (Printf.sprintf "Fabric: shard %d out of range [0, %d)" s n)

  (* Offset of shard [s]'s stamp word in a deposit. *)
  let base b s = dep_header + (s * b.stride)

  let shard_len snap s =
    check_shard snap s;
    match snap with Direct d -> d.lens.(s) | Borrowed b -> b.view.(base b s + 1)

  let shard_stamp snap s =
    check_shard snap s;
    match snap with Direct d -> d.stamps.(s) | Borrowed b -> b.view.(base b s)

  let shard_word snap s i =
    let len = shard_len snap s in
    if i < 0 || i >= len then
      invalid_arg
        (Printf.sprintf "Fabric.shard_word: word %d out of range [0, %d)" i len);
    match snap with
    | Direct d -> d.data.(s).(i)
    | Borrowed b -> b.view.(base b s + 2 + i)

  let borrowed = function Direct _ -> false | Borrowed _ -> true

  let snap_epoch = function
    | Direct d -> d.epoch
    | Borrowed b -> b.view.(dep_epoch)

  let shard_copy snap s ~dst =
    let len = shard_len snap s in
    if Array.length dst < len then invalid_arg "Fabric.shard_copy: dst too short";
    (match snap with
    | Direct d -> Arc_util.Words.blit d.data.(s) 0 dst 0 len
    | Borrowed b -> Arc_util.Words.blit b.view (base b s + 2) dst 0 len);
    len

  (* {2 Telemetry} *)

  let snapshots_direct fab = Obs.Scan.direct_count fab.scan_stats
  let snapshots_borrowed fab = Obs.Scan.borrowed_count fab.scan_stats
  let snapshot_retries fab = Obs.Scan.retry_count fab.scan_stats
  let deposits_made fab = Obs.Group.value fab.deposit_counts
  let shard_writes fab s = Obs.Cell.get (Obs.Group.cell fab.shard_writes s)

  let deposit_footprint_words fab =
    Array.fold_left (fun acc d -> acc + Deposit.footprint_words d) 0 fab.deposits

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
    :: Obs.gauge "fabric_deposit_footprint_words"
         ~help:"Words of slot storage held by the writers' deposit registers"
         (float_of_int (deposit_footprint_words fab))
    :: per fab.shard_writes
end
