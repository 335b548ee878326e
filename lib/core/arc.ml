let algorithm = "arc"

(* Named result signatures (the .mli documents them): [BASE] is the
   surface both storage policies share, [S] the result of [Make] — it
   lets consumers of a register built over a runtime-chosen substrate,
   a first-class [Mem_intf.S] over an mmap'd file, package the functor
   result as [(module Arc.S with ...)] — and [ELASTIC] the result of
   [Arc_dynamic.Make]. *)
module type BASE = sig
  include Register_intf.ZERO_COPY

  val read_stamped : reader -> f:(Mem.buffer -> int -> 'a) -> int * 'a
  val probe_stamp : t -> int
  val read_plain : reader -> f:(Mem.buffer -> int -> 'a) -> 'a
  val write_guarded : t -> guard:(unit -> unit) -> src:int array -> len:int -> unit
  val recover_crash : t -> int
  val quarantine : t -> int -> unit
  val write_probes : t -> int
  val writes : t -> int

  val write_coalesced :
    t -> max_pending:int -> max_staleness:int -> src:int array -> len:int -> unit

  val flush_coalesced : t -> unit
  val pending_writes : t -> int
  val coalesced_batches : t -> int
  val coalesced_absorbed : t -> int
  val max_coalesced_batch : t -> int

  type telemetry

  val make_telemetry :
    ?ring:int -> ?clock:(unit -> int) -> readers:int -> unit -> telemetry

  val set_telemetry : t -> telemetry option -> unit
  val telemetry : t -> telemetry option
  val fast_reads : telemetry -> int
  val slow_reads : telemetry -> int
  val hint_hits : telemetry -> int
  val plain_reads : telemetry -> int
  val plain_fallbacks : telemetry -> int
  val metrics : t -> Arc_obs.Obs.metric list
  val trace : t -> Arc_obs.Ring.entry list

  module Debug : sig
    val slots : t -> int
    val current : t -> int
    val r_start : t -> int -> int
    val r_end : t -> int -> int
    val slot_size : t -> int -> int
    val slot_seq : t -> int -> int
    val slot_seq_end : t -> int -> int
    val presence_slack : t -> int
    val presence_bound_holds : t -> bool
    val free_slot_exists : t -> bool
    val force_current : t -> int -> unit
    val unvalidated_plain : reader -> f:(Mem.buffer -> int -> 'a) -> 'a
  end
end

module type S = sig
  include BASE

  val create_with : use_hint:bool -> readers:int -> capacity:int -> init:int array -> t
end

module type ELASTIC = sig
  include BASE

  val footprint_words : t -> int
  val reallocations : t -> int
  val reclaim_stale : t -> lease:int -> int
  val set_lease : t -> int option -> unit
  val reclaimed : t -> int
  val live_buffers : t -> int
end

(* Slot-storage policy — the one point of variation between ARC's two
   instantiations ({!Make} below and [Arc_dynamic.Make]).  Everything
   else — Algorithms 2 and 3, the §3.4 hint, R2', coalescing, crash
   recovery, telemetry — is the single core. *)
type storage = Fixed | Elastic

module type POLICY = sig
  val algorithm : string
  val name : string
  val storage : storage
end

module Packed = Arc_util.Packed

module Core (P : POLICY) (M : Arc_mem.Mem_intf.S) = struct
  module Mem = M
  module Obs = Arc_obs.Obs
  module Ring = Arc_obs.Ring

  let elastic = match P.storage with Elastic -> true | Fixed -> false
  let who_read = P.name ^ ".read"

  (* Telemetry (ISSUE 5).  All counters are host-heap {!Obs.Cell}s —
     plain single-writer words outside the substrate [M] — so
     recording adds no substrate operations: nothing for
     {!Arc_mem.Counting} to charge to the algorithm and no scheduling
     points under the virtual scheduler (attaching telemetry changes
     no checker-visible history).  Fast/slow read cells are
     per-reader-identity, cached in the reader handle at {!reader}
     time; the ring records only slow-path writer/recovery
     transitions.  When no telemetry is attached every hook is a
     single [None] branch. *)
  type telemetry = {
    fast_hits : Obs.Group.t;  (* per reader identity: R2 fast-path reads *)
    slow_cells : Obs.Group.t;  (* per reader identity: R3+R4 slow reads *)
    plain_cells : Obs.Group.t;  (* per reader identity: validated R2' plain reads *)
    pfall_cells : Obs.Group.t;  (* per reader identity: R2' stamp-mismatch fallbacks *)
    hint_cell : Obs.Cell.t;  (* writer: §3.4 proposals accepted by W1 *)
    tel_ring : Ring.t;  (* slot-state transition trace *)
    clock : unit -> int;  (* timestamp source for ring entries *)
  }

  (* Layout note.  [r_start]/[r_end] are hammered by releasing readers
     while the writer polls them during its free-slot scan, and the
     writer resets them on every recycle — pair-contended allocation
     keeps that RMW traffic off the cache lines of [size], the buffer
     and the neighbouring slots, while keeping the two counters
     together: every operation that touches one touches the other
     (read entry/exit, the probe's equality test), so the pair costs
     one line, not two.  [size] stays a plain cell: it is written once
     per recycle and read once per read, always adjacent in time to
     the content accesses of the same slot. *)
  type slot = {
    size : M.atomic;
        (* words of the snapshot currently in [content]; -1 is the
           elastic revocation marker: the slot's storage was reclaimed
           while a laggard (possibly crashed) reader still pins it.
           Fixed storage never stores it. *)
    seq : M.atomic;  (* begin stamp: stored {e before} the content copy *)
    seq_end : M.atomic;
        (* end stamp: stored {e after} content and size.  The pair
           brackets slot preparation seqlock-style — [seq_end = s]
           followed (in program order) by [seq = s] read around a plain
           content scan certifies the scan saw write [s] whole; any
           overlap with a re-preparation leaves the two unequal, since
           the writer bumps [seq] to the fresh (strictly greater) stamp
           before touching a word of content — buffer swaps included.
           This is what makes the copy-free validated R2' read
           ([read_plain]) sound. *)
    r_start : M.atomic;  (* reads started on this slot since its last update *)
    r_end : M.atomic;  (* reads completed on this slot since its last update *)
    mutable content : M.buffer;
        (* Fixed storage: allocated in [create], never replaced.
           Elastic storage: replaced by the writer while the slot is
           free (published to readers by the exchange on [current], the
           same happens-before edge as the slot's data) — and by
           [reclaim_stale] while the slot is pinned, which is exactly
           the race the size-validation handshake in [acquire]
           resolves. *)
  }

  (* Writer-private state: accessed only by the single writer thread
     (writer {e role} — under supervised failover the role moves
     between threads, but lease discipline guarantees no overlap).
     Kept out of [t], which holds only words shared with readers and
     is never written after [create] (bar [set_telemetry]): the R2 hot
     hit loads [current] out of [t], so a writer store landing on that
     cache line would cost every write a line transfer to and from
     each spinning reader. *)
  type writer = {
    mutable quarantined : int list;  (* slots retired by [recover_crash] *)
    mutable last_slot : int;
    mutable probes : int;
    mutable writes : int;
    (* Publish-stamp counter (Register_intf.STAMPED): strictly
       increasing over the writer role's lifetime, one fresh value per
       prepared slot, stored into the slot's [seq] before the W2
       publish.  A successor resyncs it from the slots in
       [recover_crash] so stamps stay unique across failover. *)
    mutable stamp : int;
    (* Write-coalescing staging (host-heap): the latest absorbed
       snapshot plus the count of absorbed-but-unpublished writes.
       Publishing the staged value is one ordinary write — one W2
       exchange and one slot copy for the whole batch. *)
    co_buf : int array;  (* [capacity] words: its length is the bound *)
    mutable co_len : int;  (* staged length; -1 = nothing staged *)
    mutable co_pending : int;  (* absorbed writes since the last publish *)
    mutable co_batches : int;  (* coalesced publishes *)
    mutable co_absorbed : int;  (* total writes absorbed into batches *)
    mutable co_max_batch : int;  (* largest batch published so far *)
    (* Elastic storage: read only by [set_lease], [reclaim_stale] and
       the footprint accessors. *)
    mutable lease : int option;  (* auto-reclaim period, see [set_lease] *)
    mutable reallocations : int;
    mutable reclaimed : int;
    superseded_at : int array;
        (* per slot: the write count at which it was last superseded
           (W3); -1 while free or published.  Drives the staleness test
           of [reclaim_stale]. *)
  }

  type t = {
    slots : slot array;  (* N + 2, the classical lower bound *)
    current : M.atomic;  (* packed ⟨index, count⟩ — the synchronization word *)
    readers : int;
    use_hint : bool;
    hint : M.atomic;  (* §3.4 free-slot proposal; -1 when empty *)
    (* Crash-recovery journal: the index of the slot whose
       supersede-freeze (W3) is in flight, -1 when no write is mid-
       publish.  Written by the writer around W2/W3; read only by a
       {e successor} writer in [recover_crash] after a failover, so a
       plain cell would do on real hardware — it is atomic so the
       handoff is well-defined on any substrate. *)
    prefreeze : M.atomic;
    w : writer;
    mutable tel : telemetry option;
  }

  (* Per-identity counter cells, resolved once at handle creation so
     the fast path pays one option check and one plain increment. *)
  type rcells = {
    fast : Obs.Cell.t;
    slow : Obs.Cell.t;
    plain : Obs.Cell.t;
    pfall : Obs.Cell.t;
  }

  (* [last_current]/[view_buf]/[view_len] cache the full packed word
     observed at the last (re)subscription together with the validated
     view.  While this reader is subscribed to a slot, that slot can
     never drain (this reader's release unit is outstanding), hence
     never be recycled or republished — so [current] reading exactly
     the cached word certifies both the index {e and} the content are
     the cached ones, and the hot hit skips the index unpack, the slot
     array load and the size load.  ABA on the packed word is
     impossible for the same reason: re-publishing the pinned index
     requires this reader's release first.  Elastic revocation only
     touches {e superseded} slots, and a cached view was validated by
     [acquire], so it always points at intact storage (a revoked
     buffer stays alive through the GC while a view references it). *)
  type reader = {
    reg : t;
    mutable last_index : int;
    mutable last_current : int;
    mutable view_buf : M.buffer;
    mutable view_len : int;
    cells : rcells option;
  }

  let algorithm = P.algorithm

  let caps =
    {
      Register_intf.wait_free = true;
      zero_copy = true;
      max_readers = (fun ~capacity_words:_ -> Some Packed.max_readers);
      snapshot_read = true;
    }

  let create_with ~use_hint ~readers ~capacity ~init =
    let fail msg = invalid_arg (P.name ^ ".create: " ^ msg) in
    if readers < 1 then fail "need at least one reader";
    if readers > Packed.max_readers then
      fail (Printf.sprintf "readers = %d exceed the 2^32 - 2 capacity" readers);
    if capacity < 1 then fail "capacity must be positive";
    if Array.length init > capacity then fail "init longer than capacity";
    let nslots = readers + 2 in
    if nslots - 1 > Packed.max_index then fail "slot count exceeds index field";
    let fresh_slot words =
      let r_start, r_end = M.atomic_contended_pair 0 0 in
      {
        size = M.atomic 0;
        seq = M.atomic 0;
        seq_end = M.atomic 0;
        r_start;
        r_end;
        content = M.alloc words;
      }
    in
    (* Fixed storage allocates every buffer here, in slot order — the
       contract [Shm_arc.recover] maps buffer ordinals to slots by.
       Elastic storage pays only for what is stored: the initial value,
       and zero-word buffers elsewhere. *)
    let slots =
      Array.init nslots (fun i ->
          fresh_slot
            (match P.storage with
            | Fixed -> capacity
            | Elastic -> if i = 0 then Array.length init else 0))
    in
    (* I1: the initial value lives in slot 0 and [current] starts as
       ⟨index = 0, count = N⟩ — as if every reader had already
       subscribed to slot 0; reader handles start with last_index = 0
       accordingly, so a first read of an unchanged register is
       already on the RMW-free fast path. *)
    M.write_words slots.(0).content ~src:init ~len:(Array.length init);
    M.store slots.(0).size (Array.length init);
    M.store slots.(0).seq 1;
    M.store slots.(0).seq_end 1;
    {
      slots;
      (* [current] is the single globally hottest word (every reader
         loads it, misses RMW it, the writer exchanges it) and [hint]
         is stored by readers while the writer polls it — both get
         their own cache lines. *)
      current = M.atomic_contended (Packed.make ~index:0 ~count:readers);
      readers;
      use_hint;
      hint = M.atomic_contended (-1);
      prefreeze = M.atomic (-1);
      w =
        {
          quarantined = [];
          last_slot = 0;
          probes = 0;
          writes = 0;
          stamp = 1;
          co_buf = Array.make capacity 0;
          co_len = -1;
          co_pending = 0;
          co_batches = 0;
          co_absorbed = 0;
          co_max_batch = 0;
          lease = None;
          reallocations = 0;
          reclaimed = 0;
          superseded_at = Array.make nslots (-1);
        };
      tel = None;
    }

  let create ~readers ~capacity ~init = create_with ~use_hint:true ~readers ~capacity ~init

  let make_telemetry ?(ring = 256) ?(clock = fun () -> 0) ~readers () =
    {
      fast_hits =
        Obs.Group.create ~name:"arc_reads_fast_total"
          ~help:"Reads served on the RMW-free fast path (R2)" readers;
      slow_cells =
        Obs.Group.create ~name:"arc_reads_slow_total"
          ~help:"Reads that paid the R3+R4 RMW pair" readers;
      plain_cells =
        Obs.Group.create ~name:"arc_reads_plain_total"
          ~help:"Validated copy-free plain-load reads (R2')" readers;
      pfall_cells =
        Obs.Group.create ~name:"arc_reads_plain_fallback_total"
          ~help:"R2' stamp mismatches that fell back to the classic path"
          readers;
      hint_cell = Obs.Cell.create ();
      tel_ring = Ring.create ring;
      clock;
    }

  (* Attach before creating reader handles: handles resolve their
     counter cells once, at [reader] time. *)
  let set_telemetry reg tel = reg.tel <- tel
  let telemetry reg = reg.tel
  let fast_reads tel = Obs.Group.value tel.fast_hits
  let slow_reads tel = Obs.Group.value tel.slow_cells
  let plain_reads tel = Obs.Group.value tel.plain_cells
  let plain_fallbacks tel = Obs.Group.value tel.pfall_cells
  let hint_hits tel = Obs.Cell.get tel.hint_cell

  let trace reg =
    match reg.tel with None -> [] | Some tel -> Ring.dump tel.tel_ring

  let record reg ~code a b c =
    match reg.tel with
    | Some tel -> Ring.record tel.tel_ring ~at:(tel.clock ()) ~code a b c
    | None -> ()

    let reader reg i =
    if i < 0 || i >= reg.readers then
      invalid_arg
        (Printf.sprintf "%s.reader: identity %d out of range [0, %d)" P.name i
           reg.readers);
    let cells =
      match reg.tel with
      | None -> None
      | Some tel ->
        Some
          {
            fast = Obs.Group.cell tel.fast_hits i;
            slow = Obs.Group.cell tel.slow_cells i;
            plain = Obs.Group.cell tel.plain_cells i;
            pfall = Obs.Group.cell tel.pfall_cells i;
          }
    in
    (* [last_current = -1] never matches a packed word, so the first
       read revalidates through [acquire] and fills the view cache —
       keeping handle creation free of substrate operations (and
       covering a handle claimed after slot 0's storage was revoked:
       its I1 presence pins slot 0 until its first release). *)
    {
      reg;
      last_index = 0;
      last_current = -1;
      view_buf = reg.slots.(0).content;
      view_len = 0;
      cells;
    }

  (* R3 + R4 + R5: release the subscribed slot (posting the §3.4 hint)
     and subscribe to the current one.  Shared by the slow read and the
     elastic revocation-recovery retry. *)
  let release_and_subscribe rd =
    let reg = rd.reg in
    let released = reg.slots.(rd.last_index) in
    M.incr released.r_end (* R3 *);
    if reg.use_hint then begin
      (* §3.4: if this release made the slot reusable, propose it to
         the writer.  Plain loads/stores suffice: a stale proposal is
         re-validated by the writer before use. *)
      let fin = M.load released.r_end in
      if fin = M.load released.r_start then M.store reg.hint rd.last_index
    end;
    let now = M.add_and_fetch reg.current 1 (* R4 *) in
    (* Saturation guard: with count ≤ readers ≤ 2^32 - 2 by
       construction this cannot fire; if the count word is ever
       corrupted (or force-saturated by a fault campaign), the next
       increment must not silently carry into the index bits.  A
       post-increment count of 0 is a wrap that already happened;
       count = max_count means this increment consumed the last
       head-room unit above the documented 2^32 - 2 bound.  The typed
       error and message shape are the repository-wide ones
       (Arc_util.Saturation = Register_intf.Saturated). *)
    Arc_util.Saturation.guard_count ~who:who_read ~bound:Packed.max_readers
      (Packed.count now);
    rd.last_index <- Packed.index now (* R5 *);
    (* Cache the exact word the subscription returned: its index is the
       slot this reader now pins, so a later exact match can only mean
       that same publish is still current. *)
    rd.last_current <- now

  (* Validate-and-cache the view of the slot the reader is subscribed
     to.  The revocation marker is checked on both sides of the
     [content] read: [reclaim_stale] stores size = -1 {e before}
     swapping the buffer, so [s1 >= 0 && s2 = s1] certifies that no
     revocation overlapped the two loads and [buf] is the intact
     storage.  On a revoked slot the reader recovers by releasing and
     re-subscribing — each retry means the register advanced at least
     a full lease of writes while this reader was between R4 and the
     validation.  Fixed storage never revokes: it never stores the
     marker, and a pinned slot's size and buffer never change (the
     writer only prepares free slots).  The handshake would always
     pass there, so fixed storage skips it: one size load, no retry
     branch, and the read is wait-free by construction. *)
  let rec acquire rd =
    let entry = rd.reg.slots.(rd.last_index) in
    let s1 = M.load entry.size in
    let buf = entry.content in
    if (not elastic) || (s1 >= 0 && M.load entry.size = s1) then begin
      rd.view_buf <- buf;
      rd.view_len <- s1
    end
    else begin
      release_and_subscribe rd;
      acquire rd
    end

  (* Algorithm 2.  The fast path (R2) performs a single plain load of
     [current]; only when a newer value was published does the reader
     pay two RMWs (R3 release + R4 subscribe).  The hot hit compares
     the whole packed word against the cached [last_current]: an exact
     match certifies nothing moved (the pinned slot cannot be
     republished, see the [reader] type), so the cached view is
     returned without unpacking the index or reloading the size.  A
     word that differs only in the count field still lands on the
     RMW-free path through the index comparison, merely refreshing the
     cache — the fast/slow telemetry split is unchanged: fast = reads
     that paid no RMW. *)
  let read_view rd =
    let reg = rd.reg in
    let w = M.load reg.current (* R1 *) in
    if w = rd.last_current then begin
      (* R2 hot hit: zero RMW, zero further memory traffic — the
         telemetry hit marker is a plain store to this identity's
         private cell, never an atomic. *)
      (match rd.cells with
      | Some c -> c.fast.Obs.Cell.v <- c.fast.Obs.Cell.v + 1
      | None -> ());
      (rd.view_buf, rd.view_len)
    end
    else begin
      let index = Packed.index w in
      if rd.last_index = index then begin
        (* R2: other readers churned the count but the published slot
           is still ours — refresh the cached word, stay RMW-free.
           [w]'s index is the pinned slot, so caching it is sound. *)
        (match rd.cells with
        | Some c -> c.fast.Obs.Cell.v <- c.fast.Obs.Cell.v + 1
        | None -> ());
        rd.last_current <- w
      end
      else begin
        (match rd.cells with
        | Some c -> c.slow.Obs.Cell.v <- c.slow.Obs.Cell.v + 1
        | None -> ());
        release_and_subscribe rd
      end;
      acquire rd;
      (rd.view_buf, rd.view_len)
    end

  let read_with rd ~f =
    let buffer, len = read_view rd in
    f buffer len

  (* Register_intf.STAMPED.  The subscribed slot is pinned by this
     reader's presence (count or frozen r_start unit), so its [seq] is
     exactly the stamp of the write whose content [read_view] just
     returned — one extra plain load over a plain read.  Elastic
     revocation swaps [content] but never touches [seq]. *)
  let read_stamped rd ~f =
    let buffer, len = read_view rd in
    let stamp = M.load rd.reg.slots.(rd.last_index).seq in
    (stamp, f buffer len)

  (* Register_intf.STAMPED.  Two plain loads, no RMW, no presence
     accounting — safe from any thread.  The published slot is never
     the one being prepared ([find_free] excludes [last_slot]), so a
     probe either reads the stamp of the currently published value or,
     if the slot was superseded, drained and recycled between the two
     loads, a strictly {e greater} stamp of a later write mid-
     preparation.  Stamps are writer-unique and increasing, so a probe
     can spuriously mismatch a concurrent collect but never falsely
     match it. *)
  let probe_stamp reg =
    let index = Packed.index (M.load reg.current) in
    M.load reg.slots.(index).seq

  (* R2': the validated copy-free plain-load read.  One attempt, one
     bounded fallback — never a retry loop, so wait-freedom is
     preserved with a worst case of one wasted scan plus one classic
     read.

     Soundness.  [e1 = seq_end] is loaded before the content scan and
     [b2 = seq] after it; the writer stores the fresh (strictly
     greater) stamp into [seq] {e before} touching a word of content
     and into [seq_end] only once content and size are complete, so
     [b2 = e1] certifies no re-preparation overlapped the scan — the
     seqlock argument, split across two words.  The trailing [current]
     recheck closes the remaining hole: without it the scan could
     validate a fully-prepared but {e not yet published} write (slot
     recycled under the reader, new write complete, publish pending),
     which a later reader might then precede with the older value — a
     new-old inversion.  With the recheck, the slot is the published
     one at validation time, and a published slot always holds the
     write its stamp names (the writer never prepares the current
     slot), so the validated value was published before we returned.
     Freshness: the attempt starts from its own [current] load, so the
     value is the published write at that instant or a later one —
     independent of this handle's subscription, whose pin is left
     untouched (a validated R2' read neither releases nor
     subscribes).

     Elastic storage swaps buffers: the scan captures [entry.content]
     once and bounds-checks the loaded size against the {e captured}
     buffer, so a realloc or revocation racing the scan can at worst
     fail validation, never index out of bounds.

     [f] runs on the shared buffer {e before} validation: on a
     concurrent overlap it can observe a torn view whose result is
     discarded.  It must therefore be pure and total on arbitrary
     word contents (no [f]-visible invariants may be assumed), exactly
     like a seqlock read section. *)
  let read_plain_validated rd w ~f =
    let reg = rd.reg in
    let index = Packed.index w in
    let entry = reg.slots.(index) in
    let e1 = M.load entry.seq_end in
    let len = M.load entry.size in
    let buf = entry.content in
    if len >= 0 && len <= M.capacity buf && M.load entry.seq = e1 then begin
      let r = f buf len in
      if
        M.load entry.seq = e1
        && Packed.index (M.load reg.current) = index
      then begin
        (match rd.cells with
        | Some c -> c.plain.Obs.Cell.v <- c.plain.Obs.Cell.v + 1
        | None -> ());
        r
      end
      else begin
        (match rd.cells with
        | Some c -> c.pfall.Obs.Cell.v <- c.pfall.Obs.Cell.v + 1
        | None -> ());
        read_with rd ~f
      end
    end
    else begin
      (match rd.cells with
      | Some c -> c.pfall.Obs.Cell.v <- c.pfall.Obs.Cell.v + 1
      | None -> ());
      read_with rd ~f
    end

  let read_plain rd ~f =
    let reg = rd.reg in
    let w = M.load reg.current in
    if w = rd.last_current then begin
      (* Pinned hot hit, same argument as [read_view]: the packed word
         is unchanged since this handle's last subscription, the
         subscribed slot is presence-pinned and therefore immutable, so
         the cached view needs no stamp validation at all — a mixed
         hold loop (read_plain between writes, one classic fallback
         per write) pays a single load per read at steady state. *)
      (match rd.cells with
      | Some c -> c.plain.Obs.Cell.v <- c.plain.Obs.Cell.v + 1
      | None -> ());
      f rd.view_buf rd.view_len
    end
    else read_plain_validated rd w ~f

  let read_into rd ~dst =
    read_with rd ~f:(fun buffer len ->
        if Array.length dst < len then invalid_arg (P.name ^ ".read_into: dst too short");
        M.read_words buffer ~dst ~len;
        len)

  (* [j <> last_slot] excludes the current slot: the current slot's
     subscribers live in [current]'s count field, not in
     r_start/r_end, so the counter test alone would call it free.
     Between writes last_slot = current's index for an uninterrupted
     writer; a crashed predecessor may have died between its publish
     and the last_slot update, which is why [recover_crash]
     re-establishes the invariant from the synchronization word before
     a successor's first search.  [quarantined] is writer-private —
     membership costs no shared-memory access. *)
  let slot_free reg j =
    j <> reg.w.last_slot
    && (not (List.memq j reg.w.quarantined))
    && M.load reg.slots.(j).r_start = M.load reg.slots.(j).r_end

  (* W1 scan: a top-level function rather than a local closure, so the
     write path allocates nothing. *)
  let rec scan_free reg step =
    let w = reg.w and n = Array.length reg.slots in
    if step > n then failwith (P.name ^ ".write: no free slot (invariant violated)")
    else begin
      let j = (w.last_slot + step) mod n in
      w.probes <- w.probes + 1;
      M.cede ();
      if slot_free reg j then begin
        record reg ~code:Ring.code_slot_claim j 0 step;
        j
      end
      else scan_free reg (step + 1)
    end

  (* W1: free-slot search.  Try the readers' proposal first (O(1)
     amortized), then scan — Lemma 4.1 guarantees a free slot exists
     among the N+2 within one sweep. *)
  let find_free reg =
    let w = reg.w in
    let proposal =
      if not reg.use_hint then -1
      else begin
        let h = M.load reg.hint in
        if h >= 0 then M.store reg.hint (-1);
        h
      end
    in
    if proposal >= 0 && proposal < Array.length reg.slots && slot_free reg proposal
    then begin
      w.probes <- w.probes + 1;
      (match reg.tel with
      | Some tel -> Obs.Cell.incr tel.hint_cell
      | None -> ());
      record reg ~code:Ring.code_slot_claim proposal 1 0;
      proposal
    end
    else scan_free reg 1

  (* Elastic sizing: grow always; shrink only below half to avoid
     thrashing on small size oscillations. *)
  let needs_realloc entry len =
    let cap = M.capacity entry.content in
    len > cap || len * 2 < cap

  (* Revoke the {e storage} (never the accounting) of slots that have
     been superseded for more than [lease] writes yet are still
     pinned — the signature of a crashed or indefinitely paused
     reader.  The slot stays pinned: presence accounting is what keeps
     the algorithm wait-free and a crashed reader's pin is permanent
     by design (Lemma 4.1 tolerates it: N readers pin at most N of the
     N+2 slots).  What is reclaimed is the buffer, which for elastic
     storage is the part whose cost scales with snapshot size.  A
     paused-but-alive reader keeps its cached view alive through the
     GC and recovers via [acquire]'s validation on its next
     subscribe.  Fixed storage never revokes: it finds nothing. *)
  let reclaim_stale reg ~lease =
    let w = reg.w in
    if lease < 0 then
      invalid_arg
        (Printf.sprintf "%s.reclaim_stale: lease = %d (need >= 0)" P.name lease);
    let reclaimed = ref 0 in
    Array.iteri
      (fun j s ->
        if
          elastic
          && j <> w.last_slot
          && w.superseded_at.(j) >= 0
          && w.writes - w.superseded_at.(j) > lease
          && M.load s.r_start <> M.load s.r_end
          && M.load s.size >= 0
        then begin
          (* Marker first, swap second: a reader's [acquire] re-reads
             [size] after reading [content], so it can never validate
             a view that mixes the old length with the empty buffer. *)
          M.store s.size (-1);
          s.content <- M.alloc 0;
          w.reclaimed <- w.reclaimed + 1;
          incr reclaimed;
          record reg ~code:Ring.code_reclaim j
            (w.writes - w.superseded_at.(j))
            0
        end)
      reg.slots;
    !reclaimed

  let set_lease reg lease =
    (match lease with
    | Some l when l < 1 ->
      invalid_arg (Printf.sprintf "%s.set_lease: lease = %d (need >= 1)" P.name l)
    | _ -> ());
    reg.w.lease <- lease

  (* Length and capacity are validated before any writer state is
     touched, so a rejected write leaves the register and the
     coalescing stage exactly as they were. *)
  let check_write reg ~op ~src ~len =
    if len < 0 || len > Array.length src then
      invalid_arg (P.name ^ "." ^ op ^ ": bad length");
    if len > Array.length reg.w.co_buf then
      invalid_arg (P.name ^ "." ^ op ^ ": exceeds capacity")

  (* Algorithm 3.  [guard] is the epoch-fence hook
     (Register_intf.FENCEABLE): it runs once the slot is fully
     prepared, immediately before the W2 publish.  If it raises, the
     write aborts with nothing published — the slot was free and both
     its counters are 0/0, so the ledger is untouched and the next
     write reuses it.  [batch] is the number of staged coalesced writes
     this publish retires (0 for none); the coalescing bookkeeping is
     committed only once W2 has published, so an aborted publish keeps
     the staged writes for a later flush. *)
  let publish reg ~guard ~src ~len ~batch =
    let w = reg.w in
    let slot = find_free reg (* W1 *) in
    let entry = reg.slots.(slot) in
    (* Stamp the slot {e before} the content copy — and before any
       buffer swap: strictly increasing per writer role, so
       [probe_stamp] equality certifies an unchanged published value
       (see [probe_stamp]) and an R2' plain scan overlapping this
       preparation is guaranteed to observe [seq <> seq_end] on at
       least one side (see the [slot] type).  A guard abort burns the
       stamp — stamps are unique, not dense.  A writer crash mid-copy
       leaves [seq <> seq_end], so no plain read can ever validate the
       torn content. *)
    w.stamp <- w.stamp + 1;
    M.store entry.seq w.stamp;
    if elastic && needs_realloc entry len then begin
      (* The slot is free: no reader presence is accounted on it, so
         swapping the buffer races with nobody.  Readers holding views
         of the old buffer keep it alive via the GC.  A revoked slot
         (capacity 0) is regrown here, which also clears its -1
         marker via the size store below. *)
      let old_cap = M.capacity entry.content in
      entry.content <- M.alloc len;
      w.reallocations <- w.reallocations + 1;
      record reg ~code:Ring.code_realloc slot old_cap len
    end;
    w.superseded_at.(slot) <- -1;
    M.write_words entry.content ~src ~len;
    M.store entry.size len;
    M.store entry.seq_end w.stamp;
    M.store entry.r_start 0;
    M.store entry.r_end 0;
    (* W1.5: journal the slot about to be superseded.  Its subscriber
       count exists only in [current] until W3 freezes it into
       r_start; if this writer dies in between, a successor's
       [recover_crash] reads the journal and quarantines the slot
       instead of handing it back to [find_free] with readers still on
       it.  [last_slot] names the slot about to be superseded (it
       equals [current]'s index between writes, by [recover_crash] for
       a successor's first write).  Journalled before [guard] so the
       fencing residual window (guard load → publish) stays a single
       instruction. *)
    M.store reg.prefreeze w.last_slot;
    (try guard ()
     with e ->
       M.store reg.prefreeze (-1);
       raise e);
    let old = M.exchange reg.current (Packed.of_index slot) (* W2 *) in
    let old_slot = Packed.index old in
    (* W3: freeze the readers-presence of the superseded slot into its
       r_start; it becomes free again once the laggards' R3 increments
       bring r_end up to this value. *)
    M.store reg.slots.(old_slot).r_start (Packed.count old);
    w.superseded_at.(old_slot) <- w.writes;
    w.last_slot <- slot;
    M.store reg.prefreeze (-1);
    w.writes <- w.writes + 1;
    if batch > 0 then begin
      w.co_pending <- 0;
      w.co_len <- -1;
      w.co_batches <- w.co_batches + 1;
      if batch > w.co_max_batch then w.co_max_batch <- batch
    end;
    (match reg.tel with
    | Some tel ->
      let at = tel.clock () in
      Ring.record tel.tel_ring ~at ~code:Ring.code_publish slot old_slot 0;
      Ring.record tel.tel_ring ~at ~code:Ring.code_freeze old_slot
        (Packed.count old) 0
    | None -> ());
    match w.lease with
    | Some l when w.writes mod l = 0 -> ignore (reclaim_stale reg ~lease:l)
    | _ -> ()

  (* A direct write supersedes anything still staged by
     [write_coalesced]: the staged writes are absorbed into this batch
     (they were older), never resurrected by a later flush. *)
  let write_guarded reg ~guard ~src ~len =
    check_write reg ~op:"write" ~src ~len;
    let batch = if reg.w.co_pending > 0 then reg.w.co_pending + 1 else 0 in
    publish reg ~guard ~src ~len ~batch

  (* Successor-writer recovery (Register_intf.FENCEABLE): quarantine
     the journaled mid-publish slot, if any, and re-establish the
     last_slot = current-index invariant the predecessor may have died
     without restoring.  The quarantine is a deliberate bounded leak:
     one slot per writer crash at most, paid for by over-provisioning
     reader identities (each unused identity is a net spare slot). *)
  let recover_crash reg =
    let w = reg.w in
    let j = M.load reg.prefreeze in
    w.last_slot <- Packed.index (M.load reg.current);
    (* Stamp resync: the predecessor's counter was heap-local and died
       with it.  Every issued stamp is visible in some slot's [seq]
       (quarantined slots keep theirs), so the max over slots restores
       strict monotonicity for the successor's writes. *)
    Array.iter (fun s -> w.stamp <- max w.stamp (M.load s.seq)) reg.slots;
    let quarantined =
      if j >= 0 then begin
        M.store reg.prefreeze (-1);
        if List.memq j w.quarantined then 0
        else begin
          w.quarantined <- j :: w.quarantined;
          1
        end
      end
      else 0
    in
    record reg ~code:Ring.code_recover w.last_slot quarantined j;
    quarantined

  (* External-evidence quarantine (Register_intf.FENCEABLE): retire a
     slot convicted by an integrity layer below the register — e.g. a
     checksum scan of a crash-recovered shared-memory mapping finding
     the torn content copy of a SIGKILLed writer.  Same writer-private
     list as [recover_crash], so [slot_free] excludes it from reuse. *)
  let quarantine reg j =
    let w = reg.w in
    if j < 0 || j >= Array.length reg.slots then
      invalid_arg
        (Printf.sprintf "%s.quarantine: slot %d out of range [0, %d)" P.name j
           (Array.length reg.slots));
    if not (List.memq j w.quarantined) then begin
      w.quarantined <- j :: w.quarantined;
      record reg ~code:Ring.code_quarantine j 0 0
    end

  let write reg ~src ~len = write_guarded reg ~guard:ignore ~src ~len

  (* Write coalescing (ROADMAP item 2b).  Absorb into writer-private
     staging; publish the whole batch with one ordinary write — one W2
     exchange and one slot copy.  Readers observe the bounded-staleness
     contract of [Checker.check_bounded_staleness]: a published value
     lags the newest absorbed write by at most [max_pending - 1]
     absorbed writes, and [Checker.check_coalesced] judges the publish
     subsequence (monotone, gaps ≤ the bound, final write never
     lost provided the caller flushes). *)
  let flush_coalesced reg =
    let w = reg.w in
    if w.co_pending > 0 then
      publish reg ~guard:ignore ~src:w.co_buf ~len:w.co_len
        ~batch:w.co_pending

  let write_coalesced reg ~max_pending ~max_staleness ~src ~len =
    let w = reg.w in
    if max_pending < 1 then
      invalid_arg
        (Printf.sprintf "%s.write_coalesced: max_pending = %d (need >= 1)" P.name
           max_pending);
    if max_staleness < max_pending then
      invalid_arg
        (Printf.sprintf
           "%s.write_coalesced: max_pending = %d exceeds max_staleness = %d"
           P.name max_pending max_staleness);
    check_write reg ~op:"write_coalesced" ~src ~len;
    Arc_util.Words.blit src 0 w.co_buf 0 len;
    w.co_len <- len;
    w.co_pending <- w.co_pending + 1;
    w.co_absorbed <- w.co_absorbed + 1;
    if w.co_pending >= max_pending then flush_coalesced reg

  let pending_writes reg = reg.w.co_pending
  let coalesced_batches reg = reg.w.co_batches
  let coalesced_absorbed reg = reg.w.co_absorbed
  let max_coalesced_batch reg = reg.w.co_max_batch
  let write_probes reg = reg.w.probes
  let writes reg = reg.w.writes

  let footprint_words reg =
    Array.fold_left (fun acc s -> acc + M.capacity s.content) 0 reg.slots

  let reallocations reg = reg.w.reallocations
  let reclaimed reg = reg.w.reclaimed

  (* Slots currently holding non-empty storage — the elastic
     footprint in {e slots} rather than words.  The paper's Lemma 4.1
     bounds pinned slots by N, so with reclaim active the live-buffer
     count must stay within N + 2 for the {e admitted} population N —
     the churn soak tracks this against the gate capacity even as the
     arrival population grows unboundedly. *)
  let live_buffers reg =
    Array.fold_left
      (fun acc s -> if M.capacity s.content > 0 then acc + 1 else acc)
      0 reg.slots

  let metrics reg =
    let w = reg.w in
    let storage =
      if elastic then
        [
          Obs.counter "arc_reallocations_total"
            ~help:"Buffer replacements performed by writes" w.reallocations;
          Obs.counter "arc_reclaimed_slots_total"
            ~help:"Stale pinned slots whose storage was revoked" w.reclaimed;
          Obs.gauge "arc_footprint_words"
            ~help:"Words currently allocated across slot buffers"
            (float_of_int (footprint_words reg));
        ]
      else []
    in
    let base =
      Obs.counter "arc_writes_total" ~help:"Completed register writes"
        w.writes
      :: Obs.counter "arc_write_probes_total"
           ~help:"Slots examined by W1 free-slot searches" w.probes
      :: Obs.counter "arc_quarantined_slots"
           ~help:"Slots retired by crash recovery or external conviction"
           (List.length w.quarantined)
      :: storage
      @ [
          Obs.counter "arc_coalesced_batches_total"
            ~help:"Coalesced publishes (one exchange per batch)"
            w.co_batches;
          Obs.counter "arc_coalesced_writes_total"
            ~help:"Writes absorbed into coalescing batches" w.co_absorbed;
          Obs.gauge "arc_coalesced_max_batch"
            ~help:"Largest coalesced batch published so far"
            (float_of_int w.co_max_batch);
        ]
    in
    match reg.tel with
    | None -> base
    | Some tel ->
      let per_reader group =
        Array.to_list
          (Array.mapi
             (fun i v ->
               Obs.counter (Obs.Group.name group)
                 ~labels:[ ("reader", string_of_int i) ]
                 ~help:(Obs.Group.help group) v)
             (Obs.Group.per_domain group))
      in
      per_reader tel.fast_hits
      @ per_reader tel.slow_cells
      @ per_reader tel.plain_cells
      @ per_reader tel.pfall_cells
      @ Obs.counter "arc_hint_hits_total"
          ~help:"§3.4 free-slot proposals accepted by the writer"
          (Obs.Cell.get tel.hint_cell)
        :: Obs.counter "arc_trace_events_total"
             ~help:"Slot-state transitions recorded in the trace ring"
             (Ring.recorded tel.tel_ring)
        :: base

  module Debug = struct
    let slots reg = Array.length reg.slots
    let current reg = M.load reg.current
    let r_start reg j = M.load reg.slots.(j).r_start
    let r_end reg j = M.load reg.slots.(j).r_end
    let slot_size reg j = M.load reg.slots.(j).size
    let slot_seq reg j = M.load reg.slots.(j).seq
    let slot_seq_end reg j = M.load reg.slots.(j).seq_end

    (* Negative control for the R2' tests: the same plain scan with the
       stamp validation deliberately skipped — a schedule overlapping a
       write must let the payload checker convict the torn view. *)
    let unvalidated_plain rd ~f =
      let reg = rd.reg in
      let index = Packed.index (M.load reg.current) in
      let entry = reg.slots.(index) in
      let len = M.load entry.size in
      let buf = entry.content in
      let len = if len < 0 || len > M.capacity buf then 0 else len in
      f buf len

    (* readers − (Σ_j (r_start j − r_end j) + count current).  0 in any
       quiescent live state; under crash-stop readers each crash can
       leak at most one unit of presence out of the ledger (a reader
       that died between its R3 release and R4 subscribe), so the
       slack stays within [0, crashed readers] and never goes
       negative — negative slack means presence was double-counted
       (e.g. a lost R3 release). *)
    let presence_slack reg =
      let frozen = ref 0 in
      Array.iter
        (fun s -> frozen := !frozen + (M.load s.r_start - M.load s.r_end))
        reg.slots;
      reg.readers - (!frozen + Packed.count (M.load reg.current))

    let presence_bound_holds reg = presence_slack reg = 0

    (* Test-only: overwrite the synchronization word, e.g. to place
       the count at the saturation boundary. *)
    let force_current reg w = M.store reg.current w

    let free_slot_exists reg =
      let published = Packed.index (M.load reg.current) in
      let n = Array.length reg.slots in
      let rec go j =
        if j >= n then false
        else if
          j <> published
          && (not (List.memq j reg.w.quarantined))
          && M.load reg.slots.(j).r_start = M.load reg.slots.(j).r_end
        then true
        else go (j + 1)
      in
      go 0
  end
end

module Make = Core (struct
  let algorithm = algorithm
  let name = "Arc"
  let storage = Fixed
end)
