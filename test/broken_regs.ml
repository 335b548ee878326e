(* Deliberately incorrect registers, used as negative controls: the
   schedule-exploration pipeline must catch each one.  If these ever
   pass, the test apparatus — not the algorithms — is broken. *)

(* No coordination at all: one shared buffer written in place.  Under
   word-granular simulated schedules, readers observe torn snapshots. *)
module Torn (M : Arc_mem.Mem_intf.S) = struct
  module Mem = M

  type t = { size : M.atomic; content : M.buffer }
  type reader = t

  let algorithm = "broken-torn"

  let caps =
    {
      Arc_core.Register_intf.wait_free = true;
      zero_copy = true;
      max_readers = (fun ~capacity_words:_ -> None);
      snapshot_read = false;
    }

  let create ~readers:_ ~capacity ~init =
    let t = { size = M.atomic 0; content = M.alloc capacity } in
    M.write_words t.content ~src:init ~len:(Array.length init);
    M.store t.size (Array.length init);
    t

  let reader t _ = t
  let read_with t ~f = f t.content (M.load t.size)

  let read_into t ~dst =
    read_with t ~f:(fun buffer len ->
        M.read_words buffer ~dst ~len;
        len)

  let write t ~src ~len =
    M.write_words t.content ~src ~len;
    M.store t.size len
end

(* Properly double-buffered (never torn), but each reader caches its
   first snapshot forever: blatant regularity (staleness) violation
   that only the history checker can see. *)
module Stale (M : Arc_mem.Mem_intf.S) = struct
  module Mem = M

  type t = {
    index : M.atomic;
    sizes : M.atomic array;
    buffers : M.buffer array;
    capacity : int;
  }

  type reader = {
    reg : t;
    cache : M.buffer;
    mutable cached_len : int;
    mutable primed : bool;
  }

  let algorithm = "broken-stale"

  let caps =
    {
      Arc_core.Register_intf.wait_free = true;
      zero_copy = false;
      max_readers = (fun ~capacity_words:_ -> None);
      snapshot_read = false;
    }

  let create ~readers:_ ~capacity ~init =
    let t =
      {
        index = M.atomic 0;
        sizes = [| M.atomic 0; M.atomic 0 |];
        buffers = [| M.alloc capacity; M.alloc capacity |];
        capacity;
      }
    in
    M.write_words t.buffers.(0) ~src:init ~len:(Array.length init);
    M.store t.sizes.(0) (Array.length init);
    t

  let reader reg _ = { reg; cache = M.alloc reg.capacity; cached_len = 0; primed = false }

  let read_with rd ~f =
    if not rd.primed then begin
      let i = M.load rd.reg.index in
      rd.cached_len <- M.load rd.reg.sizes.(i);
      M.blit rd.reg.buffers.(i) rd.cache ~len:rd.cached_len;
      rd.primed <- true
    end;
    f rd.cache rd.cached_len

  let read_into rd ~dst =
    read_with rd ~f:(fun buffer len ->
        M.read_words buffer ~dst ~len;
        len)

  (* Ping-pong between two buffers with no reader tracking: the write
     itself can also race a first read, but the headline defect is
     staleness. *)
  let write t ~src ~len =
    let next = 1 - M.load t.index in
    M.write_words t.buffers.(next) ~src ~len;
    M.store t.sizes.(next) len;
    M.store t.index next
end

(* Fault-layer-driven breakage: the {e correct} ARC turned broken by
   an unsound fault plan, for the crash-aware checking pipeline to
   convict.  Unlike [Torn]/[Stale] these need no bespoke bad
   algorithm — the defect is injected by Arc_fault.Fault_mem, which is
   exactly what makes them good controls for the fault campaign: if
   the crash-aware checker and the invariant auditor accept runs with
   these plans installed, the fault layer or the checks are broken. *)
module Faulty_plans = struct
  module Fault_plan = Arc_fault.Fault_plan

  (* Torn write: the writer's [at_copy]-th bulk copy stops after
     [at_word] words but {e reports success}, so a half-new half-old
     snapshot gets published.  Readers must observe payload
     validation failures (torn > 0). *)
  let silent_tear ~at_copy ~at_word =
    Fault_plan.tear ~fiber:0 ~at_copy ~at_word ~silent:true Fault_plan.empty

  (* Lost release: the given reader's first RMW — its R3 release
     increment of [r_end] — is dropped, so its presence stays
     double-counted.  The history stays atomic; only the
     presence-ledger audit (negative slack) can convict this. *)
  let lost_release ~reader_fiber =
    Fault_plan.drop ~fiber:reader_fiber ~kind:`Rmw ~nth:1 Fault_plan.empty
end

(* Escape hatch for the watchdog test: [Hang]'s writer spins until
   [release] is set.  Lives outside the functor so the test can free
   the leaked worker after the watchdog has fired. *)
module Hang_control = struct
  let release : bool Atomic.t = Atomic.make false
  let arm () = Atomic.set release false
  let free () = Atomic.set release true
end

(* A register whose write hangs (a model of a lost unlock / livelocked
   retry loop): reads are fine, but the writer spins on an external
   flag and never observes the harness stop signal.  The real runner's
   watchdog must convert this into a diagnostic failure instead of
   blocking the join forever. *)
module Hang (M : Arc_mem.Mem_intf.S) = struct
  module Mem = M

  type t = { size : M.atomic; content : M.buffer }
  type reader = t

  let algorithm = "broken-hang"

  let caps =
    {
      Arc_core.Register_intf.wait_free = false;
      zero_copy = true;
      max_readers = (fun ~capacity_words:_ -> None);
      snapshot_read = false;
    }

  let create ~readers:_ ~capacity ~init =
    let t = { size = M.atomic 0; content = M.alloc capacity } in
    M.write_words t.content ~src:init ~len:(Array.length init);
    M.store t.size (Array.length init);
    t

  let reader t _ = t
  let read_with t ~f = f t.content (M.load t.size)

  let read_into t ~dst =
    read_with t ~f:(fun buffer len ->
        M.read_words buffer ~dst ~len;
        len)

  let write _t ~src:_ ~len:_ =
    while not (Atomic.get Hang_control.release) do
      Domain.cpu_relax ()
    done
end

(* [Torn] with the fabric's stamped reads: a write bumps the stamp
   after its in-place copy, so a double collect that probes before the
   write ends accepts a torn shard. *)
module Torn_stamped (M : Arc_mem.Mem_intf.S) = struct
  module Mem = M

  type t = { stamp : M.atomic; content : M.buffer; len : int }
  type reader = { reg : t; mutable seen : int }

  let algorithm = "broken-torn-stamped"

  let caps =
    {
      Arc_core.Register_intf.wait_free = true;
      zero_copy = true;
      max_readers = (fun ~capacity_words:_ -> None);
      snapshot_read = true;
    }

  let create ~readers:_ ~capacity ~init =
    let t = { stamp = M.atomic 1; content = M.alloc capacity; len = Array.length init } in
    M.write_words t.content ~src:init ~len:t.len;
    t

  let reader reg _ = { reg; seen = 0 }

  let read_with rd ~f =
    rd.seen <- M.load rd.reg.stamp;
    f rd.reg.content rd.reg.len

  let read_into rd ~dst =
    read_with rd ~f:(fun buffer len ->
        M.read_words buffer ~dst ~len;
        len)

  let read_stamped_into = read_into
  let view_stamp rd = rd.seen
  let probe_stamp t = M.load t.stamp

  let write t ~src ~len =
    M.write_words t.content ~src ~len;
    M.store t.stamp (M.load t.stamp + 1)
end
