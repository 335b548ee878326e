(* File-backed shared-memory instance of {!Arc_mem.Mem_intf.S} plus
   the durability/integrity layer underneath it.  See shm_mem.mli for
   the model and shm_layout.ml for the on-file format. *)

module L = Shm_layout

type words = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

(* Hardware atomics on words of the mapping (shm_stubs.c).  OCaml 5's
   [Atomic] covers only heap cells, so cross-process synchronization
   words are reached through __atomic builtins on the Bigarray
   storage.  None of these allocate or raise. *)
external atomic_load_idx : words -> int -> int = "arc_shm_load" [@@noalloc]

external atomic_store_idx : words -> int -> int -> unit = "arc_shm_store"
[@@noalloc]

external atomic_exchange_idx : words -> int -> int -> int = "arc_shm_exchange"
[@@noalloc]

external atomic_fetch_add_idx : words -> int -> int -> int = "arc_shm_fetch_add"
[@@noalloc]

external atomic_cas_idx : words -> int -> int -> int -> bool = "arc_shm_cas"
[@@noalloc]

external atomic_fetch_or_idx : words -> int -> int -> int = "arc_shm_fetch_or"
[@@noalloc]

(* One pass over the payload: copy it in and return its checksum
   (the 4-lane fold of Shm_layout, seeded with the header fold). *)
external copy_in_cksum : words -> int -> int array -> int -> int -> int
  = "arc_shm_write_words_cksum"
[@@noalloc]

external cksum_idx : words -> int -> int -> int -> int = "arc_shm_cksum"
[@@noalloc]

external copy_out : words -> int -> int array -> int -> unit
  = "arc_shm_read_words"
[@@noalloc]

external blit_idx : words -> int -> int -> int -> unit = "arc_shm_blit"
[@@noalloc]

external unmap : words -> unit = "arc_shm_unmap" [@@noalloc]

type mapping = { ba : words; fd : Unix.file_descr; path : string; words : int }

let path m = m.path
let size_words m = m.words
let word_bytes = Sys.word_size / 8

(* Plain (non-atomic) word access — superblock maintenance, the
   allocator, recovery scans, and deliberate corruption injection in
   negative-control tests.  Never part of the live synchronization
   protocol. *)
let unsafe_get m i = Bigarray.Array1.get m.ba i
let unsafe_set m i v = Bigarray.Array1.set m.ba i v

(* Atomic word access by raw index, for harness regions (crash
   write-logs) shared between processes. *)
let atomic_get m i = atomic_load_idx m.ba i
let atomic_set m i v = atomic_store_idx m.ba i v

(* Reign-table address arithmetic (layout version 3): deterministic
   from the record base alone, so a recovering process derives every
   cell the same way the creator did, with no in-process state. *)
let align_up x a = (x + a - 1) / a * a
let reign_config_at base = align_up (base + 3) L.line_words
let reign_slot_at base shard = reign_config_at base + (L.line_words * (1 + shard))

(* The one reign-record validator, shared by [attach] and the arena
   walk: [Some msg] unless [base] holds a reign record whose extent is
   exactly its seats and ends by [limit]. *)
let reign_record_error m base ~limit =
  let shards = unsafe_get m (base + L.reign_nshards) in
  let size = unsafe_get m (base + L.rec_size) in
  if unsafe_get m (base + L.rec_tag) <> L.tag_reign then
    Some (Printf.sprintf "word %d does not hold a reign record" base)
  else if
    shards < 1 || reign_slot_at base shards <> base + size || base + size > limit
  then
    Some
      (Printf.sprintf "truncated reign table at word %d (%d shards in %d words)"
         base shards size)
  else None

(* {1 Lifecycle} *)

let create ~path ~words =
  if words < L.super_words + 2 then
    invalid_arg "Shm_mem.create: mapping too small for a superblock";
  let fd = Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_TRUNC ] 0o600 in
  (try Unix.ftruncate fd (words * word_bytes)
   with e ->
     Unix.close fd;
     raise e);
  let ba =
    Bigarray.array1_of_genarray
      (Unix.map_file fd Bigarray.int Bigarray.c_layout true [| words |])
  in
  let m = { ba; fd; path; words } in
  (* O_TRUNC + ftruncate leaves the file all-zero; only the non-zero
     superblock words need explicit stores.  The magic is written
     last, with a release store: a creator that dies mid-create leaves
     a file no attach will ever accept. *)
  unsafe_set m L.sb_version L.version;
  unsafe_set m L.sb_words words;
  unsafe_set m L.sb_cursor L.super_words;
  unsafe_set m L.sb_epoch 1;
  unsafe_set m L.sb_clock 1;
  atomic_store_idx m.ba L.sb_magic L.magic;
  m

(* Unmap first: the mapping's dimension drops to 0, which is also the
   mark that [close] already ran. *)
let close m =
  if Bigarray.Array1.dim m.ba > 0 then begin
    unmap m.ba;
    Unix.close m.fd
  end

let attach ~path =
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0o600 in
  let mapped = ref None in
  let fail fmt =
    Printf.ksprintf
      (fun msg ->
        (match !mapped with Some m -> close m | None -> Unix.close fd);
        failwith ("Shm_mem.attach: " ^ msg))
      fmt
  in
  let bytes = (Unix.fstat fd).Unix.st_size in
  if bytes mod word_bytes <> 0 || bytes / word_bytes < L.super_words then
    fail "%s is not a register mapping (%d bytes)" path bytes;
  let words = bytes / word_bytes in
  let ba =
    Bigarray.array1_of_genarray
      (Unix.map_file fd Bigarray.int Bigarray.c_layout true [| words |])
  in
  let m = { ba; fd; path; words } in
  mapped := Some m;
  if atomic_load_idx ba L.sb_magic <> L.magic then
    fail "%s: bad magic (not a register mapping, or creation crashed)" path;
  if unsafe_get m L.sb_version <> L.version then
    fail "%s: layout version %d, expected %d" path (unsafe_get m L.sb_version)
      L.version;
  if unsafe_get m L.sb_words <> words then
    fail "%s: superblock records %d words but the file holds %d" path
      (unsafe_get m L.sb_words) words;
  let cursor = unsafe_get m L.sb_cursor in
  if cursor < L.super_words || cursor > words then
    fail "%s: allocation cursor %d out of range" path cursor;
  (* Register mappings carry a reign table; validate the pointer and
     the table's extent BEFORE anyone reads a seat through it.  This
     runs after the version gate above, so a mapping of another layout
     is rejected without a single table byte being interpreted. *)
  let reign = unsafe_get m L.sb_reign in
  if reign <> 0 then begin
    if reign < L.super_words || reign + 3 > cursor then
      fail "%s: reign table pointer %d out of range" path reign;
    Option.iter (fail "%s: %s" path) (reign_record_error m reign ~limit:cursor)
  end;
  m

(* {1 Superblock accessors} *)

let tick m = atomic_fetch_add_idx m.ba L.sb_clock 1
let clock m = atomic_load_idx m.ba L.sb_clock
let epoch m = atomic_load_idx m.ba L.sb_epoch
let publish_seq m = atomic_load_idx m.ba L.sb_publish

let set_geometry m ~readers ~capacity =
  unsafe_set m L.sb_geom_readers readers;
  unsafe_set m L.sb_geom_capacity capacity;
  unsafe_set m L.sb_geom_nslots (readers + 2)

let geometry m =
  let readers = unsafe_get m L.sb_geom_readers in
  if readers = 0 then None
  else
    Some
      ( readers,
        unsafe_get m L.sb_geom_capacity,
        unsafe_get m L.sb_geom_nslots )

(* {1 Reign table: the writer seats} *)

let reign_table m = unsafe_get m L.sb_reign

let reign_shards m =
  let base = reign_table m in
  if base = 0 then 0 else unsafe_get m (base + L.reign_nshards)

let reign_exn m =
  let base = reign_table m in
  if base = 0 then
    invalid_arg "Shm_mem: mapping has no reign table (no writer seat)";
  base

(* Word [field] of seat [shard]'s slot. *)
let seat_cell m ~shard field =
  let base = reign_exn m in
  let n = unsafe_get m (base + L.reign_nshards) in
  if shard < 0 || shard >= n then
    invalid_arg
      (Printf.sprintf "Shm_mem: shard %d out of range (table holds %d)" shard n);
  reign_slot_at base shard + field

let config_epoch_cell m = reign_config_at (reign_exn m)
let config_epoch m = atomic_load_idx m.ba (config_epoch_cell m)
let shard_election_cell m ~shard = seat_cell m ~shard L.rs_election
let shard_election m ~shard = atomic_load_idx m.ba (shard_election_cell m ~shard)
let shard_epoch_cell m ~shard = seat_cell m ~shard L.rs_epoch
let shard_epoch m ~shard = atomic_load_idx m.ba (shard_epoch_cell m ~shard)
let shard_fence_cell m ~shard = seat_cell m ~shard L.rs_fence
let shard_fence_at m ~shard = atomic_load_idx m.ba (shard_fence_cell m ~shard)

(* {1 Allocator}

   Creator-only, pre-sharing: records are carved off a bump cursor
   with plain stores, so all allocation must happen before the mapping
   is shared with another process (fork or attach).  The register's
   whole footprint is allocated by [create]; nothing in the live
   protocol allocates. *)

let bump m n =
  let base = unsafe_get m L.sb_cursor in
  if base + n > m.words then
    invalid_arg
      (Printf.sprintf
         "Shm_mem: mapping exhausted (need %d words at %d, mapping holds %d)" n
         base m.words);
  unsafe_set m L.sb_cursor (base + n);
  base

let count_record m sb_idx = unsafe_set m sb_idx (unsafe_get m sb_idx + 1)

let alloc_cell m v =
  let base = bump m 3 in
  unsafe_set m (base + L.rec_tag) L.tag_cell;
  unsafe_set m (base + L.rec_size) 3;
  unsafe_set m (base + L.cell_value) v;
  count_record m L.sb_cells;
  base + L.cell_value

(* Contended cells: the value is placed at a 128-byte-aligned word and
   the record extends to the end of that block, so the hot word owns
   its cache line (plus the adjacent-prefetch pair).  Unlike the heap,
   the mapping never moves a cell, so the isolation holds. *)
let alloc_cell_contended m v =
  let base = unsafe_get m L.sb_cursor in
  let value = align_up (base + 2) L.line_words in
  let stop = value + L.line_words in
  let base = bump m (stop - base) in
  unsafe_set m (base + L.rec_tag) L.tag_cell;
  unsafe_set m (base + L.rec_size) (stop - base);
  unsafe_set m value v;
  count_record m L.sb_cells;
  value

let alloc_cell_pair m v1 v2 =
  let base = unsafe_get m L.sb_cursor in
  let value = align_up (base + 2) L.line_words in
  let stop = value + L.line_words in
  let base = bump m (stop - base) in
  unsafe_set m (base + L.rec_tag) L.tag_cell;
  unsafe_set m (base + L.rec_size) (stop - base);
  unsafe_set m value v1;
  unsafe_set m (value + 1) v2;
  count_record m L.sb_cells;
  (value, value + 1)

let alloc_buffer m cap =
  if cap < 0 then invalid_arg "Shm_mem.alloc: negative size";
  let base = bump m (L.buf_header + cap) in
  unsafe_set m (base + L.rec_tag) L.tag_buffer;
  unsafe_set m (base + L.rec_size) (L.buf_header + cap);
  unsafe_set m (base + L.buf_cap) cap;
  unsafe_set m (base + L.buf_state) L.state_live;
  count_record m L.sb_buffers;
  base

let alloc_raw m n =
  if n < 0 then invalid_arg "Shm_mem.alloc_raw: negative size";
  let base = bump m (2 + n) in
  unsafe_set m (base + L.rec_tag) L.tag_raw;
  unsafe_set m (base + L.rec_size) (2 + n);
  base + 2

(* Reign table: one per mapping, creator-only like every record.  The
   configuration epoch and the per-shard epochs start at 1 — mirroring
   [sb_epoch]'s convention that epoch 0 means "before any reign" —
   and every election word starts at {!Arc_util.Term_vote.none}
   (which is 0, so the zeroed file already holds it). *)
let alloc_reign_table m ~shards =
  if shards < 1 then invalid_arg "Shm_mem.alloc_reign_table: shards must be >= 1";
  if reign_table m <> 0 then
    invalid_arg "Shm_mem.alloc_reign_table: mapping already holds a reign table";
  let base = unsafe_get m L.sb_cursor in
  let stop = reign_slot_at base shards in
  let base = bump m (stop - base) in
  unsafe_set m (base + L.rec_tag) L.tag_reign;
  unsafe_set m (base + L.rec_size) (stop - base);
  unsafe_set m (base + L.reign_nshards) shards;
  unsafe_set m (reign_config_at base) 1;
  for shard = 0 to shards - 1 do
    unsafe_set m (reign_slot_at base shard + L.rs_epoch) 1
  done;
  unsafe_set m L.sb_reign base;
  base

(* {1 Checksums} *)

let cksum_header len epoch seq =
  L.cksum_mix (L.cksum_mix (L.cksum_mix L.cksum_seed len) epoch) seq

(* {1 The Mem_intf.S instance} *)

let mem m : (module Arc_mem.Mem_intf.S with type atomic = int) =
  (module struct
    let name = "shm"

    type atomic = int

    let atomic v = alloc_cell m v
    let atomic_contended v = alloc_cell_contended m v
    let atomic_contended_pair v1 v2 = alloc_cell_pair m v1 v2
    let load i = atomic_load_idx m.ba i

    (* [store] is sequentially consistent, as [Atomic.set] is on the
       heap: a seq-cst exchange whose old value is dropped, since a
       seq-cst [__atomic_store_n] on x86 is the same locked exchange.
       [store_release] is the bare MOV. *)
    let store i v = ignore (atomic_exchange_idx m.ba i v)
    let store_release i v = atomic_store_idx m.ba i v
    let exchange i v = atomic_exchange_idx m.ba i v
    let fetch_and_add i k = atomic_fetch_add_idx m.ba i k
    let incr i = ignore (atomic_fetch_add_idx m.ba i 1)
    let compare_and_set i old desired = atomic_cas_idx m.ba i old desired
    let fetch_and_or i mask = atomic_fetch_or_idx m.ba i mask

    type buffer = int (* record base word index *)

    let alloc words = alloc_buffer m words
    let capacity b = unsafe_get m (b + L.buf_cap)

    (* The durability protocol: every multi-word store is bracketed by
       a publish-sequence stamp ([buf_begin] before the copy,
       [buf_end] after) and covered by a checksum, so a recovering
       process can convict a SIGKILL-torn copy from the bytes alone.
       Single-writer per buffer (the register's free-slot discipline),
       so plain program order is all the bracketing needs: a killed
       process loses no executed stores — the pages stay in the page
       cache — it only stops executing. *)
    let write_words b ~src ~len =
      if len < 0 || len > Array.length src || len > capacity b then
        invalid_arg "Shm_mem.write_words: bad length";
      let seq = 1 + atomic_fetch_add_idx m.ba L.sb_publish 1 in
      let epoch = atomic_load_idx m.ba L.sb_epoch in
      atomic_store_idx m.ba (b + L.buf_epoch) epoch;
      atomic_store_idx m.ba (b + L.buf_begin) seq;
      atomic_store_idx m.ba (b + L.buf_len) len;
      let cksum =
        copy_in_cksum m.ba (b + L.buf_header) src len
          (cksum_header len epoch seq)
      in
      atomic_store_idx m.ba (b + L.buf_cksum) cksum;
      atomic_store_idx m.ba (b + L.buf_end) seq

    let read_word b i = unsafe_get m (b + L.buf_header + i)

    let read_words b ~dst ~len =
      if len < 0 || len > Array.length dst || len > capacity b then
        invalid_arg "Shm_mem.read_words: bad length";
      copy_out m.ba (b + L.buf_header) dst len

    (* Raw payload copy for copy-based baselines; it does not publish
       a trailer, so blit targets read as never-published to
       [recover] — the integrity layer covers the register's
       write path, which never blits. *)
    let blit src dst ~len =
      if len < 0 || len > capacity src || len > capacity dst then
        invalid_arg "Shm_mem.blit: bad length";
      blit_idx m.ba (src + L.buf_header) (dst + L.buf_header) len

    let cede () = Domain.cpu_relax ()
  end)

(* {1 Buffer inspection} *)

type buffer_info = {
  ordinal : int;
  base : int;
  cap : int;
  state : int;
  len : int;
  bepoch : int;
  begin_seq : int;
  end_seq : int;
  cksum : int;
}

let buffer_info m ~ordinal ~base =
  {
    ordinal;
    base;
    cap = unsafe_get m (base + L.buf_cap);
    state = unsafe_get m (base + L.buf_state);
    len = unsafe_get m (base + L.buf_len);
    bepoch = unsafe_get m (base + L.buf_epoch);
    begin_seq = unsafe_get m (base + L.buf_begin);
    end_seq = unsafe_get m (base + L.buf_end);
    cksum = unsafe_get m (base + L.buf_cksum);
  }

(* Walk the record arena, applying [buffer] to every buffer record.
   Returns an [Error] on any structural damage — an unwalkable arena
   means the superblock itself cannot be trusted. *)
let walk m ~buffer =
  let cursor = unsafe_get m L.sb_cursor in
  if cursor < L.super_words || cursor > m.words then
    Error (Printf.sprintf "allocation cursor %d out of range" cursor)
  else begin
    let exception Stop of string in
    let cells = ref 0 and buffers = ref 0 and reigns = ref 0 in
    try
      let pos = ref L.super_words in
      while !pos < cursor do
        let base = !pos in
        let tag = unsafe_get m (base + L.rec_tag) in
        let size = unsafe_get m (base + L.rec_size) in
        if size < 2 || base + size > cursor then
          raise
            (Stop
               (Printf.sprintf "corrupt record at word %d (size %d)" base size));
        if tag = L.tag_cell then incr cells
        else if tag = L.tag_buffer then begin
          buffer ~ordinal:!buffers ~base;
          incr buffers
        end
        else if tag = L.tag_raw then ()
        else if tag = L.tag_reign then begin
          Option.iter
            (fun msg -> raise (Stop msg))
            (reign_record_error m base ~limit:cursor);
          if unsafe_get m L.sb_reign <> base then
            raise
              (Stop
                 (Printf.sprintf
                    "reign table at word %d but the superblock points at %d"
                    base (unsafe_get m L.sb_reign)));
          incr reigns
        end
        else
          raise
            (Stop (Printf.sprintf "unknown record tag %#x at word %d" tag base));
        pos := base + size
      done;
      if unsafe_get m L.sb_reign <> 0 && !reigns = 0 then
        raise (Stop "superblock points at a reign table the arena does not hold");
      if !cells <> unsafe_get m L.sb_cells then
        raise
          (Stop
             (Printf.sprintf "superblock records %d cells, arena holds %d"
                (unsafe_get m L.sb_cells) !cells));
      if !buffers <> unsafe_get m L.sb_buffers then
        raise
          (Stop
             (Printf.sprintf "superblock records %d buffers, arena holds %d"
                (unsafe_get m L.sb_buffers) !buffers));
      Ok ()
    with Stop msg -> Error msg
  end

let iter_buffers m f =
  match
    walk m ~buffer:(fun ~ordinal ~base -> f (buffer_info m ~ordinal ~base))
  with
  | Ok () -> ()
  | Error msg -> failwith ("Shm_mem.iter_buffers: " ^ msg)

(* {1 Recovery} *)

type reason = Torn | Checksum | Bad_length

let reason_to_string = function
  | Torn -> "torn"
  | Checksum -> "checksum"
  | Bad_length -> "bad-length"

type conviction = { ordinal : int; at : int; seq : int; why : reason }

type recovery = {
  convicted : conviction list;
  intact : int;
  unpublished : int;
  quarantined_before : int;
  new_epoch : int;
  recovery_fence : int;
  last_seq : int;
}

let checksum m info =
  if info.len < 0 || info.len > info.cap then
    invalid_arg "Shm_mem.checksum: trailer length outside the buffer";
  cksum_idx m.ba (info.base + L.buf_header) info.len
    (cksum_header info.len info.bepoch info.begin_seq)

(* Classify one buffer from its bytes alone.  [None] = intact-or-empty;
   [Some reason] = convict. *)
let classify m info =
  if info.begin_seq = 0 && info.end_seq = 0 then None (* never published *)
  else if info.begin_seq <> info.end_seq then Some Torn
  else if info.len < 0 || info.len > info.cap then Some Bad_length
  else if checksum m info <> info.cksum then Some Checksum
  else None

(* Process-wide recovery telemetry ({!Arc_obs.Obs.Cell}s, plain
   single-writer words): [recover] runs on the recovering process's
   startup path, effectively single-threaded, so the cells are exact.
   Cumulative across every mapping this process recovers, which is
   what the crash-campaign exposition wants. *)
module Tel = struct
  module Obs = Arc_obs.Obs

  let recoveries = Obs.Cell.create ()
  let failures = Obs.Cell.create ()
  let convictions = Obs.Cell.create ()
  let torn = Obs.Cell.create ()
  let checksum = Obs.Cell.create ()
  let bad_length = Obs.Cell.create ()
  let intact = Obs.Cell.create ()
end

let metrics () =
  let open Arc_obs.Obs in
  [
    counter "shm_recoveries_total"
      ~help:"Successful crash-recovery scans of a mapping"
      (Cell.get Tel.recoveries);
    counter "shm_recovery_failures_total"
      ~help:"Recovery scans rejected (unrecoverable mapping)"
      (Cell.get Tel.failures);
    counter "shm_convictions_total"
      ~labels:[ ("reason", "torn") ]
      ~help:"Buffers convicted and quarantined by recovery, by evidence"
      (Cell.get Tel.torn);
    counter "shm_convictions_total"
      ~labels:[ ("reason", "checksum") ]
      (Cell.get Tel.checksum);
    counter "shm_convictions_total"
      ~labels:[ ("reason", "bad-length") ]
      (Cell.get Tel.bad_length);
    counter "shm_intact_buffers_total"
      ~help:"Buffers that passed the integrity scan" (Cell.get Tel.intact);
  ]

(* Seat-scoped recovery: the §6d pipeline run by seat [shard]'s elected
   successor over that seat's slots only.  The mapping interleaves
   every seat's buffers in one arena (register r owns ordinals
   [r·nslots, (r+1)·nslots)), and the OTHER seats' writers are alive
   while this one recovers — so out-of-range buffers are not even
   classified: a transiently torn trailer there is live traffic, not
   evidence.  A single register is seat 0 of a one-seat table, whose
   scan covers the whole arena. *)
let scan m ~shard =
  (* Version gate before any interpretation: a mapping of another
     layout may keep different state in the same superblock words —
     version 4 kept an election word at 14 — so reading it would
     fabricate history no process ever wrote.  Convict the mapping as
     stale instead of misreading it.  (A version {e ahead} of ours is
     just as unreadable: some newer layout we cannot interpret.) *)
  let recorded_version = unsafe_get m L.sb_version in
  if recorded_version <> L.version then
    Error
      (Printf.sprintf
         "stale layout: mapping records version %d, this build reads version \
          %d — refusing to reinterpret its superblock"
         recorded_version L.version)
  else if reign_table m = 0 then
    Error "recover: mapping has no reign table (no writer seat)"
  else if shard < 0 || shard >= reign_shards m then
    Error
      (Printf.sprintf "recover: seat %d out of range (table holds %d)" shard
         (reign_shards m))
  else
    match geometry m with
    | None -> Error "recover: mapping records no register geometry"
    | Some (_, _, nslots) -> (
        let lo = shard * nslots and hi = (shard + 1) * nslots in
        let generation = unsafe_get m L.sb_epoch in
        let convicted = ref [] in
        let intact = ref 0
        and unpublished = ref 0
        and quarantined_before = ref 0
        and last_seq = ref 0
        and stale = ref None in
        let buffer ~ordinal ~base =
          if ordinal >= lo && ordinal < hi then begin
            let info = buffer_info m ~ordinal ~base in
            (* A trailer stamped with a generation the superblock has
               not reached convicts the superblock, not the buffer:
               this mapping is an older copy of a file that lived on —
               its free-slot and fence state cannot be trusted at
               all. *)
            if info.bepoch > generation && !stale = None then
              stale :=
                Some
                  (Printf.sprintf
                     "stale superblock: buffer %d carries epoch %d, superblock \
                      at %d"
                     ordinal info.bepoch generation);
            if info.state = L.state_quarantined then incr quarantined_before
            else
              match classify m info with
              | None ->
                  if info.end_seq = 0 then incr unpublished
                  else begin
                    incr intact;
                    if info.end_seq > !last_seq then last_seq := info.end_seq
                  end
              | Some why ->
                  unsafe_set m (base + L.buf_state) L.state_quarantined;
                  convicted :=
                    { ordinal; at = base; seq = info.begin_seq; why }
                    :: !convicted
          end
        in
        match walk m ~buffer with
        | Error _ as e -> e
        | Ok () -> (
            match !stale with
            | Some msg -> Error msg
            | None ->
                (* The scanned slots are structurally sound and every
                   damaged one is quarantined: open a new epoch on the
                   seat, fence the crashed writer at the current
                   shared-clock instant (so the crash-aware checker can
                   bound when its pending write could still have taken
                   effect), and advance the mapping generation, so a
                   rollback of the superblock to before this recovery
                   is convictable by the next one. *)
                let new_epoch =
                  1 + atomic_fetch_add_idx m.ba (shard_epoch_cell m ~shard) 1
                in
                ignore (atomic_fetch_add_idx m.ba L.sb_epoch 1);
                let recovery_fence = tick m in
                atomic_store_idx m.ba (shard_fence_cell m ~shard) recovery_fence;
                Ok
                  {
                    convicted = List.rev !convicted;
                    intact = !intact;
                    unpublished = !unpublished;
                    quarantined_before = !quarantined_before;
                    new_epoch;
                    recovery_fence;
                    last_seq = !last_seq;
                  }))

let recover m ~shard =
  match scan m ~shard with
  | Error _ as e ->
      Arc_obs.Obs.Cell.incr Tel.failures;
      e
  | Ok r ->
      Arc_obs.Obs.Cell.incr Tel.recoveries;
      Arc_obs.Obs.Cell.add Tel.convictions (List.length r.convicted);
      Arc_obs.Obs.Cell.add Tel.intact r.intact;
      List.iter
        (fun c ->
          Arc_obs.Obs.Cell.incr
            (match c.why with
            | Torn -> Tel.torn
            | Checksum -> Tel.checksum
            | Bad_length -> Tel.bad_length))
        r.convicted;
      Ok r

let read_latest m =
  let best = ref None in
  iter_buffers m (fun info ->
      if
        info.state = L.state_live && info.end_seq > 0 && classify m info = None
      then
        match !best with
        | Some (seq, _) when seq >= info.end_seq -> ()
        | _ -> best := Some (info.end_seq, info));
  match !best with
  | None -> None
  | Some (seq, info) ->
      let payload = Array.make info.len 0 in
      copy_out m.ba (info.base + L.buf_header) payload info.len;
      Some (seq, payload)
