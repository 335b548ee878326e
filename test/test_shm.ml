(* The file-backed shared-memory substrate and its durability layer
   (lib/shm, DESIGN.md §6d).

   The negative controls here mirror the arc-crash harness's built-in
   conviction controls: each plants one precise kind of damage in an
   otherwise healthy mapping and demands that {!Shm_mem.recover}
   convicts it — and, symmetrically, that a clean mapping is NOT
   convicted.  A recovery scan that never convicts is vacuous; one
   that convicts healthy slots burns the spare-identity budget.  Both
   failure modes are silent in the happy-path tests, so they get
   explicit controls.

   Cross-process behaviour proper (fork + SIGKILL) lives in the
   arc-crash binary — OCaml 5 forbids [Unix.fork] once any domain has
   ever been spawned in the process, and the alcotest binary spawns
   domains freely.  What this suite can and does cover in-process is
   cross-{e mapping} durability: two independent mmap views of the
   same file, writes through one visible and verifiable through the
   other, which is the same page-cache path a second process reads. *)

module L = Arc_shm.Shm_layout
module S = Arc_shm.Shm_mem
module Payload = Arc_workload.Payload.Make (Arc_mem.Real_mem)

let with_mapping ?(words = 1 lsl 14) f =
  let path = Filename.temp_file "arc_shm_test" ".reg" in
  let m = S.create ~path ~words in
  Fun.protect
    ~finally:(fun () ->
      S.close m;
      try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path m)

(* A small published register — a one-seat mapping: 2 readers, 8-word
   payloads, five writes beyond the init.  Returns whatever [f] makes
   of the mapping. *)
let with_register f =
  with_mapping (fun path m ->
      let init = Array.make 8 0 in
      Payload.stamp init ~seq:0 ~len:8;
      let inst =
        Arc_shm.Shm_arc.create m ~shards:1 ~readers:2 ~capacity:8 ~init
      in
      let module I = (val inst : Arc_shm.Shm_arc.INSTANCE) in
      let src = Array.make 8 0 in
      for k = 1 to 5 do
        Payload.stamp src ~seq:k ~len:8;
        I.R.write I.regs.(0) ~src ~len:8
      done;
      f path m inst)

let newest_buffer m =
  let best = ref None in
  S.iter_buffers m (fun (info : S.buffer_info) ->
      match !best with
      | Some (b : S.buffer_info) when b.end_seq >= info.end_seq -> ()
      | _ -> if info.end_seq > 0 then best := Some info);
  match !best with
  | Some b -> b
  | None -> Alcotest.fail "nothing published in control mapping"

(* {1 Mapping lifecycle} *)

let test_create_attach () =
  with_mapping (fun path m ->
      S.set_geometry m ~readers:3 ~capacity:16;
      ignore (S.alloc_reign_table m ~shards:1);
      Alcotest.(check (option (triple int int int)))
        "geometry survives the file round-trip"
        (Some (3, 16, 3 + 2))
        (let m' = S.attach ~path in
         let g = S.geometry m' in
         S.close m';
         g);
      Alcotest.(check bool) "clock ticks are strictly increasing" true
        (let a = S.tick m and b = S.tick m in
         a < b && b < S.clock m + 1);
      Alcotest.(check int) "fresh mapping starts at epoch 1" 1 (S.epoch m);
      Alcotest.(check int) "never recovered: seat 0's fence = 0" 0
        (S.shard_fence_at m ~shard:0))

let test_attach_rejects_garbage () =
  let path = Filename.temp_file "arc_shm_test" ".reg" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let oc = open_out_bin path in
      output_string oc (String.make 4096 '\xAB');
      close_out oc;
      Alcotest.check_raises "wrong magic is refused"
        (Failure
           (Printf.sprintf
              "Shm_mem.attach: %s: bad magic (not a register mapping, or \
               creation crashed)"
              path))
        (fun () -> ignore (S.attach ~path)))

(* Lines of this process's address-space map that name [path]. *)
let maps_naming path =
  In_channel.with_open_text "/proc/self/maps" In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun line ->
         let n = String.length path and l = String.length line in
         let rec has i = i + n <= l && (String.sub line i n = path || has (i + 1)) in
         has 0)
  |> List.length

(* [close] unmaps at once rather than leaving the mapping to the GC:
   create/close and attach/close cycles leave nothing mapped, nor does
   a refused attach; a second [close] is a no-op; a plain access after
   [close] raises.  And the closed mapping's finalizer must not unmap
   a later mapping that the kernel placed at the same addresses. *)
let test_close_unmaps () =
  let path = Filename.temp_file "arc_shm_test" ".reg" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let words = 1 lsl 12 in
      for _ = 1 to 1_000 do
        S.close (S.create ~path ~words)
      done;
      for _ = 1 to 1_000 do
        S.close (S.attach ~path)
      done;
      Alcotest.(check int) "no mapping of the file after 2,000 closes" 0
        (maps_naming path);
      let m = S.attach ~path in
      Alcotest.(check int) "an open mapping is listed" 1 (maps_naming path);
      S.close m;
      S.close m;
      (match S.unsafe_get m 0 with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "a read after close must raise");
      let m = S.create ~path ~words in
      S.unsafe_set m L.sb_version (L.version + 1);
      S.close m;
      (match S.attach ~path with
      | exception Failure _ -> ()
      | m ->
          S.close m;
          Alcotest.fail "attach must refuse a version-skewed mapping");
      Alcotest.(check int) "a refused attach leaves nothing mapped" 0
        (maps_naming path);
      let fresh =
        let dropped = S.create ~path ~words in
        S.close dropped;
        S.create ~path ~words
      in
      Gc.full_major ();
      S.unsafe_set fresh (words - 1) 42;
      Alcotest.(check int) "a mapping made after a close survives the GC" 42
        (S.unsafe_get fresh (words - 1));
      Alcotest.(check int) "and is still listed" 1 (maps_naming path);
      S.close fresh)

(* {1 Cross-mapping durability}

   Publish through the creator's mapping; verify through a second,
   independent mmap of the same file — the in-process stand-in for a
   second OS process. *)

let test_cross_mapping_read_latest () =
  with_register (fun path _m _inst ->
      let m' = S.attach ~path in
      Fun.protect
        ~finally:(fun () -> S.close m')
        (fun () ->
          match S.read_latest m' with
          | None -> Alcotest.fail "published register reads back empty"
          | Some (_seq, payload) ->
              (match Payload.validate_words payload ~len:(Array.length payload) with
              | Ok seq ->
                  Alcotest.(check int)
                    "latest snapshot through the second mapping is write 5" 5 seq
              | Error e -> Alcotest.fail ("snapshot failed validation: " ^ e))))

(* {1 Conviction controls} *)

let recovery_exn = function
  | Ok (r : S.recovery) -> r
  | Error msg -> Alcotest.fail ("unexpected whole-mapping conviction: " ^ msg)

let test_convicts_flipped_payload () =
  with_register (fun _path m _inst ->
      let b = newest_buffer m in
      let at = b.base + L.buf_header + 1 in
      S.unsafe_set m at (S.unsafe_get m at lxor 1);
      let r = recovery_exn (S.recover m ~shard:0) in
      Alcotest.(check bool) "flipped payload byte is convicted as Checksum" true
        (List.exists
           (fun (c : S.conviction) ->
             c.why = S.Checksum && c.ordinal = b.ordinal)
           r.convicted);
      (* The damaged slot must never be returned again. *)
      match S.read_latest m with
      | None -> Alcotest.fail "conviction wiped out the intact snapshots too"
      | Some (seq, _) ->
          Alcotest.(check bool) "read_latest skips the convicted slot" true
            (seq <> b.end_seq))

(* {1 A racing reader}

   Two domains over one shm register: a writer publishing stamped
   payloads through the fused copy+checksum kernel, and a reader
   validating every classic read and every R2' plain read (which scans
   the slot the writer may be re-preparing, so it relies on each
   mapping word being stored whole).  The length leaves a 4-word group
   and a 3-word tail after the 8-word loop. *)

let test_racing_reader () =
  with_mapping (fun _path m ->
      let len = 1031 and writes = 20_000 in
      let init = Array.make len 0 in
      Payload.stamp init ~seq:0 ~len;
      let inst = Arc_shm.Shm_arc.create m ~shards:1 ~readers:1 ~capacity:len ~init in
      let module I = (val inst : Arc_shm.Shm_arc.INSTANCE) in
      let module P = Arc_workload.Payload.Make (I.M) in
      let reg = I.regs.(0) in
      let rd = I.R.reader reg 0 in
      let started = Atomic.make false and finished = Atomic.make false in
      let writer =
        Domain.spawn (fun () ->
            while not (Atomic.get started) do
              Domain.cpu_relax ()
            done;
            let src = Array.make len 0 in
            for k = 1 to writes do
              Payload.stamp src ~seq:k ~len;
              I.R.write reg ~src ~len
            done;
            Atomic.set finished true)
      in
      let validate buf n = P.validate buf ~len:n in
      let reader =
        Domain.spawn (fun () ->
            let last = ref 0 and reads = ref 0 in
            let check what = function
              | Error e -> Alcotest.failf "%s after seq %d: torn: %s" what !last e
              | Ok s ->
                  if s < !last then
                    Alcotest.failf "%s went backward: %d after %d" what s !last;
                  last := s;
                  incr reads
            in
            Atomic.set started true;
            while not (Atomic.get finished) do
              check "read_with" (I.R.read_with rd ~f:validate);
              check "read_plain" (I.R.read_plain rd ~f:validate)
            done;
            !reads)
      in
      Domain.join writer;
      let reads = Domain.join reader in
      Alcotest.(check bool) (Printf.sprintf "reads raced the writer (%d)" reads) true
        (reads > 0);
      Alcotest.(check (result int string)) "the last read is the last write"
        (Ok writes) (I.R.read_with rd ~f:validate);
      Alcotest.(check bool) "presence ledger balanced" true
        (I.R.Debug.presence_bound_holds reg);
      (match S.read_latest m with
      | None -> Alcotest.fail "nothing verified in the mapping"
      | Some (_seq, payload) ->
          Alcotest.(check (result int string)) "read_latest names the last write"
            (Ok writes) (Payload.validate_words payload ~len));
      let r = recovery_exn (S.recover m ~shard:0) in
      Alcotest.(check int) "recovery convicts nothing" 0 (List.length r.convicted))

(* {1 The 4-lane publish checksum}

   Both C checksum stubs — the fused copy+checksum of [write_words]
   and the recompute over the mapping that [recover] uses — are
   pinned against this pure-OCaml statement of the layout-4 fold:
   header (len, epoch, seq); lane k seeded with [header lxor k] folds
   words i with i mod 4 = k; lanes folded in order. *)

let reference_cksum ~epoch ~seq words len =
  let mix = L.cksum_mix in
  let header = mix (mix (mix L.cksum_seed len) epoch) seq in
  let lanes = Array.init 4 (fun k -> header lxor k) in
  for i = 0 to len - 1 do
    lanes.(i mod 4) <- mix lanes.(i mod 4) words.(i)
  done;
  mix (mix (mix lanes.(0) lanes.(1)) lanes.(2)) lanes.(3)

(* Full-range words: negative, extreme and high-bit values exercise
   the stubs' 64-bit arithmetic against OCaml's 63-bit ints. *)
let random_words rng n =
  Array.init n (fun i ->
      match i mod 5 with
      | 0 -> Int64.to_int (Arc_util.Splitmix.next64 rng)
      | 1 -> -Int64.to_int (Arc_util.Splitmix.next64 rng)
      | 2 -> [| min_int; max_int; -1; 0 |].(i / 5 mod 4)
      | _ -> Int64.to_int (Arc_util.Splitmix.next64 rng))

(* A one-seat mapping holding one buffer of capacity [cap] (seat 0's
   slot 0): [f] gets the mapping, a publish function, and a reader of
   the buffer's current trailer. *)
let with_published ?(words = 1 lsl 15) ~cap f =
  with_mapping ~words (fun _path m ->
      let module M = (val S.mem m) in
      let b = M.alloc cap in
      ignore (S.alloc_reign_table m ~shards:1);
      S.set_geometry m ~readers:1 ~capacity:cap;
      let info () =
        let found = ref None in
        S.iter_buffers m (fun i -> found := Some i);
        Option.get !found
      in
      f m (fun ~src ~len -> M.write_words b ~src ~len) info)

(* Every length 0..17 (each residue mod 8 on both sides of one
   8-word group of the publish kernel), a 4 KB register, and 128 KB
   plus 3 words (a 3-word tail after the last 8-word group) and plus
   6 (a 4-word group, then a 2-word tail). *)
let cksum_lengths = List.init 18 Fun.id @ [ 512; 16387; 16390 ]

let test_cksum_stubs_match_reference () =
  let rng = Arc_util.Splitmix.of_int 0x5eed in
  with_published ~cap:(List.fold_left max 0 cksum_lengths) (fun m write info ->
      List.iter
        (fun len ->
          let src = random_words rng len in
          write ~src ~len;
          let i = info () in
          let expect = reference_cksum ~epoch:i.bepoch ~seq:i.begin_seq src len in
          Alcotest.(check int)
            (Printf.sprintf "len %d: copy stub's trailer checksum" len)
            expect i.cksum;
          Alcotest.(check int)
            (Printf.sprintf "len %d: recompute stub over the copy" len)
            expect (S.checksum m i);
          for k = 0 to len - 1 do
            if S.unsafe_get m (i.base + L.buf_header + k) <> src.(k) then
              Alcotest.failf "len %d: payload word %d not copied" len k
          done;
          (* The recompute stub on bytes the copy stub never wrote. *)
          let other = random_words rng len in
          Array.iteri
            (fun k w -> S.unsafe_set m (i.base + L.buf_header + k) w)
            other;
          Alcotest.(check int)
            (Printf.sprintf "len %d: recompute stub over planted words" len)
            (reference_cksum ~epoch:i.bepoch ~seq:i.begin_seq other len)
            (S.checksum m i))
        cksum_lengths)

(* Neither remainder of the publish kernel (the 4-word group after
   the 8-word loop, the len mod 4 tail) may store past [len]: publish
   into a buffer one word larger, from a source one word longer, with
   a sentinel planted at payload word [len]. *)
let test_publish_stays_in_bounds () =
  let rng = Arc_util.Splitmix.of_int 0xb0b5 in
  List.iter
    (fun len ->
      with_published ~cap:(len + 1) (fun m write info ->
          let src = random_words rng (len + 1) in
          let at = (info ()).base + L.buf_header + len in
          let sentinel = lnot src.(len) in
          S.unsafe_set m at sentinel;
          write ~src ~len;
          Alcotest.(check int)
            (Printf.sprintf "len %d: sentinel at word %d untouched" len len)
            sentinel (S.unsafe_get m at);
          Alcotest.(check int)
            (Printf.sprintf "len %d: trailer length" len)
            len (info ()).len))
    cksum_lengths

let convicted_checksum m =
  match S.recover m ~shard:0 with
  | Error msg -> Alcotest.fail ("unexpected whole-mapping conviction: " ^ msg)
  | Ok r -> List.exists (fun (c : S.conviction) -> c.why = S.Checksum) r.convicted

(* One flipped word must convict whichever lane it falls in: words
   0-3 cover all four lanes, and word 10 is the tail word of an
   11-word (len mod 4 = 3) payload. *)
let test_convicts_flip_every_lane () =
  let len = 11 in
  List.iter
    (fun at ->
      with_published ~words:1024 ~cap:len (fun m write info ->
          write ~src:(Array.init len (fun k -> (k * 1_000_003) + 17)) ~len;
          Alcotest.(check bool) "the intact buffer is not convicted" false
            (convicted_checksum m);
          let w = (info ()).base + L.buf_header + at in
          S.unsafe_set m w (S.unsafe_get m w lxor 0x100);
          Alcotest.(check bool)
            (Printf.sprintf "flipped word %d (lane %d) convicted as Checksum" at
               (at mod 4))
            true (convicted_checksum m)))
    [ 0; 1; 2; 3; len - 1 ]

let test_convicts_adjacent_swap () =
  let len = 11 in
  with_published ~words:1024 ~cap:len (fun m write info ->
      write ~src:(Array.init len (fun k -> (k * 1_000_003) + 17)) ~len;
      let at = (info ()).base + L.buf_header + 4 in
      let a = S.unsafe_get m at and b = S.unsafe_get m (at + 1) in
      S.unsafe_set m at b;
      S.unsafe_set m (at + 1) a;
      Alcotest.(check bool) "swapped adjacent words convicted as Checksum" true
        (convicted_checksum m))

let test_convicts_torn_trailer () =
  with_register (fun _path m _inst ->
      let b = newest_buffer m in
      S.unsafe_set m (b.base + L.buf_end) 0;
      let r = recovery_exn (S.recover m ~shard:0) in
      Alcotest.(check bool) "begin/end mismatch is convicted as Torn" true
        (List.exists
           (fun (c : S.conviction) -> c.why = S.Torn && c.ordinal = b.ordinal)
           r.convicted);
      Alcotest.(check bool) "generation opens past the damage" true
        (S.epoch m > b.bepoch))

let test_convicts_stale_superblock () =
  with_register (fun _path m _inst ->
      S.unsafe_set m L.sb_epoch 0;
      match S.recover m ~shard:0 with
      | Error msg ->
          Alcotest.(check bool)
            "whole-mapping conviction names the stale superblock" true
            (let needle = "stale superblock" in
             let n = String.length needle in
             String.length msg >= n && String.sub msg 0 n = needle)
      | Ok _ ->
          Alcotest.fail
            "trailer epoch ahead of the superblock must convict the mapping")

(* A mapping written by the previous layout (version 4, which kept an
   election word at superblock word 14) must be refused by [attach] and
   convicted as stale by [recover], never misread: interpreting its
   superblock would fabricate state out of whatever the old layout kept
   in its words. *)
let test_convicts_stale_layout_version () =
  with_register (fun path m _inst ->
      S.unsafe_set m L.sb_version (L.version - 1);
      (match S.recover m ~shard:0 with
      | Error msg ->
          Alcotest.(check bool)
            "whole-mapping conviction names the stale layout" true
            (let needle = "stale layout" in
             let n = String.length needle in
             String.length msg >= n && String.sub msg 0 n = needle)
      | Ok _ ->
          Alcotest.fail "pre-bump layout version must convict the mapping");
      (* The front door agrees: a fresh process cannot even map it. *)
      match S.attach ~path with
      | exception Failure _ -> ()
      | m' ->
          S.close m';
          Alcotest.fail "attach must reject a version-skewed mapping")

let test_election_word_durable () =
  (* The election word lives in seat 0 of the mapping's reign table: a
     CAS through one mapping is visible through a second, independent
     mapping of the file — the same page-cache path a standby process
     reads. *)
  let module TV = Arc_util.Term_vote in
  with_register (fun path m inst ->
      let module I = (val inst : Arc_shm.Shm_arc.INSTANCE) in
      Alcotest.(check int) "fresh mapping: no election ever held" TV.none
        (S.shard_election m ~shard:0);
      let cell = S.shard_election_cell I.mapping ~shard:0 in
      let won =
        I.M.compare_and_set cell TV.none
          (TV.succ_term TV.none ~candidate:2)
      in
      Alcotest.(check bool) "CAS through the substrate lands" true won;
      let m' = S.attach ~path in
      Fun.protect
        ~finally:(fun () -> S.close m')
        (fun () ->
          let w = S.shard_election m' ~shard:0 in
          Alcotest.(check int) "term visible through a second mapping" 1
            (TV.term w);
          Alcotest.(check (option int)) "vote visible through a second mapping"
            (Some 2) (TV.vote w)))

let test_clean_mapping_not_convicted () =
  with_register (fun _path m _inst ->
      let r = recovery_exn (S.recover m ~shard:0) in
      Alcotest.(check (list int)) "no healthy slot is convicted" []
        (List.map (fun (c : S.conviction) -> c.ordinal) r.convicted);
      Alcotest.(check bool) "scan sees the published snapshots" true
        (r.intact > 0);
      Alcotest.(check int) "recovery stamps seat 0's fence"
        (S.shard_fence_at m ~shard:0) r.recovery_fence)

(* {1 Quarantine persistence}

   A conviction is recorded in the file, not in the process: a later
   scan — and a later process — must see the slot as already
   quarantined, not re-convict it. *)

let test_quarantine_persists () =
  with_register (fun path m _inst ->
      let b = newest_buffer m in
      S.unsafe_set m (b.base + L.buf_end) 0;
      let r1 = recovery_exn (S.recover m ~shard:0) in
      Alcotest.(check int) "first scan convicts" 1 (List.length r1.convicted);
      let m' = S.attach ~path in
      Fun.protect
        ~finally:(fun () -> S.close m')
        (fun () ->
          let r2 = recovery_exn (S.recover m' ~shard:0) in
          Alcotest.(check int) "second scan re-convicts nothing" 0
            (List.length r2.convicted);
          Alcotest.(check int) "second scan sees the prior quarantine" 1
            r2.quarantined_before))

(* {1 The bundled register recovery} *)

let test_shm_arc_recover_clean () =
  with_register (fun _path m inst ->
      match Arc_shm.Shm_arc.recover inst ~shard:0 with
      | Error msg -> Alcotest.fail ("clean recover failed: " ^ msg)
      | Ok ((r : S.recovery), journaled) ->
          Alcotest.(check int) "no slot convicted" 0 (List.length r.convicted);
          Alcotest.(check int) "no prefreeze journal entry" 0 journaled;
          (* The epoch bump fences any pre-recovery writer handle
             backed by seat 0's epoch cell. *)
          let module I = (val inst : Arc_shm.Shm_arc.INSTANCE) in
          Alcotest.(check int) "seat epoch advanced past its initial 1" 2
            r.new_epoch;
          Alcotest.(check int) "epoch advanced in the file" r.new_epoch
            (I.M.load (S.shard_epoch_cell I.mapping ~shard:0));
          Alcotest.(check int) "mapping generation advanced" 2 (S.epoch m);
          Alcotest.(check (pair int int)) "retired words 8 and 14 stay zero"
            (0, 0)
            (S.unsafe_get m 8, S.unsafe_get m 14))

let test_refuses_used_mapping () =
  with_register (fun _path m _inst ->
      Alcotest.check_raises "a second register in one mapping is refused"
        (Invalid_argument
           "Shm_arc.create: mapping already holds a register (attach-and-\
            recreate is not supported; fork instead)")
        (fun () ->
          ignore
            (Arc_shm.Shm_arc.create m ~shards:1 ~readers:2 ~capacity:8
               ~init:[| 0 |])))

let test_refuses_foreign_mem () =
  with_mapping (fun _path other ->
      with_mapping (fun _path m ->
          Alcotest.check_raises "registers built over another mapping's memory"
            (Invalid_argument
               "Shm_arc.create: mem did not allocate the registers in the \
                mapping")
            (fun () ->
              ignore
                (Arc_shm.Shm_arc.create ~mem:(S.mem other) m ~shards:1
                   ~readers:2 ~capacity:8 ~init:(Array.make 8 0)))))

(* {1 Fabric mappings and the reign table}

   The reign table holds one writer seat per register — election word,
   fence epoch, recovery fence — plus the fabric-wide configuration
   epoch.  A mapping of another layout version must be convicted on the
   version word alone, BEFORE any reign-table byte is interpreted, and
   a seat-scoped recovery must treat other seats' live state as
   traffic, never evidence. *)

let with_fabric ?(shards = 2) f =
  with_mapping (fun path m ->
      let init = Array.make 8 0 in
      Payload.stamp init ~seq:0 ~len:8;
      let finst =
        Arc_shm.Shm_arc.create m ~shards ~readers:2 ~capacity:8 ~init
      in
      let module I = (val finst : Arc_shm.Shm_arc.INSTANCE) in
      let src = Array.make 8 0 in
      for s = 0 to shards - 1 do
        for k = 1 to 3 do
          Payload.stamp src ~seq:k ~len:8;
          I.R.write I.regs.(s) ~src ~len:8
        done
      done;
      f path m finst)

let newest_in m ~lo ~hi =
  let best = ref None in
  S.iter_buffers m (fun (info : S.buffer_info) ->
      if info.ordinal >= lo && info.ordinal < hi && info.end_seq > 0 then
        match !best with
        | Some (b : S.buffer_info) when b.end_seq >= info.end_seq -> ()
        | _ -> best := Some info);
  match !best with
  | Some b -> b
  | None -> Alcotest.fail "shard published nothing"

let test_fabric_reign_accessors () =
  let module TV = Arc_util.Term_vote in
  with_fabric (fun path m _finst ->
      Alcotest.(check int) "table records the shard count" 2 (S.reign_shards m);
      Alcotest.(check int) "configuration epoch starts at 1" 1 (S.config_epoch m);
      for s = 0 to 1 do
        Alcotest.(check int) "shard writer-fence epoch starts at 1" 1
          (S.shard_epoch m ~shard:s);
        Alcotest.(check int) "no election ever held on the shard" TV.none
          (S.shard_election m ~shard:s);
        Alcotest.(check int) "never recovered: shard fence = 0" 0
          (S.shard_fence_at m ~shard:s)
      done;
      (* Durability: a configuration bump through the creator's mapping
         is visible through a second, independent mapping — the same
         page-cache path a certified snapshot in another process loads. *)
      S.atomic_set m (S.config_epoch_cell m) 5;
      let m' = S.attach ~path in
      Fun.protect
        ~finally:(fun () -> S.close m')
        (fun () ->
          Alcotest.(check int) "config epoch visible through a second mapping" 5
            (S.config_epoch m')))

let test_fabric_stale_layout () =
  with_fabric (fun path m _finst ->
      (* Poison the reign table FIRST: if the version gate did not fire
         before table interpretation, attach/recover would trip over
         this garbage (a different failure) instead of the version
         conviction the test demands. *)
      let reign_base = S.unsafe_get m L.sb_reign in
      S.unsafe_set m (reign_base + L.rec_tag) 0xBAD;
      S.unsafe_set m L.sb_version (L.version - 1);
      (match S.attach ~path with
      | exception Failure msg ->
          Alcotest.(check bool)
            "attach convicts the version word, not the poisoned table" true
            (let has needle =
               let n = String.length needle and l = String.length msg in
               let rec go i =
                 i + n <= l && (String.sub msg i n = needle || go (i + 1))
               in
               go 0
             in
             has "layout version" && not (has "reign"))
      | m' ->
          S.close m';
          Alcotest.fail "attach must reject a version-4 fabric mapping");
      match Arc_shm.Shm_arc.recover _finst ~shard:0 with
      | Error msg ->
          Alcotest.(check bool)
            "shard recovery convicts the stale layout before reading the table"
            true
            (String.length msg >= 12 && String.sub msg 0 12 = "stale layout")
      | Ok _ -> Alcotest.fail "recover must refuse a version-4 mapping")

let test_fabric_truncated_table () =
  with_fabric (fun path m _finst ->
      let reign_base = S.unsafe_get m L.sb_reign in
      (* Claim one more shard than the record was sized for. *)
      S.unsafe_set m (reign_base + L.reign_nshards) 3;
      match S.attach ~path with
      | exception Failure msg ->
          Alcotest.(check bool) "attach names the truncated table" true
            (let needle = "truncated reign table" in
             let n = String.length needle and l = String.length msg in
             let rec go i =
               i + n <= l && (String.sub msg i n = needle || go (i + 1))
             in
             go 0)
      | m' ->
          S.close m';
          Alcotest.fail "attach must reject a truncated reign table")

let test_recover_shard_scoped () =
  with_fabric (fun _path m finst ->
      let nslots =
        match S.geometry m with
        | Some (_, _, n) -> n
        | None -> Alcotest.fail "fabric mapping records no geometry"
      in
      (* Tear shard 1's newest copy; shard 0 stays pristine. *)
      let b = newest_in m ~lo:nslots ~hi:(2 * nslots) in
      S.unsafe_set m (b.base + L.buf_end) 0;
      (match Arc_shm.Shm_arc.recover finst ~shard:0 with
      | Error msg -> Alcotest.fail ("clean shard convicted: " ^ msg)
      | Ok (r, journaled) ->
          Alcotest.(check (list int))
            "shard 0's scan never classifies shard 1's torn buffer" []
            (List.map (fun (c : S.conviction) -> c.ordinal) r.convicted);
          Alcotest.(check int) "no journal quarantine on the clean shard" 0
            journaled;
          Alcotest.(check int) "shard 0's reign epoch bumped by its recovery" 2
            (S.shard_epoch m ~shard:0);
          Alcotest.(check int) "shard 1's reign epoch untouched" 1
            (S.shard_epoch m ~shard:1);
          Alcotest.(check int) "shard 1's fence untouched" 0
            (S.shard_fence_at m ~shard:1);
          Alcotest.(check int) "shard 0's fence is this recovery's stamp"
            r.recovery_fence
            (S.shard_fence_at m ~shard:0);
          Alcotest.(check int) "the mapping generation advanced" 2 (S.epoch m));
      match Arc_shm.Shm_arc.recover finst ~shard:1 with
      | Error msg -> Alcotest.fail ("torn shard conviction failed: " ^ msg)
      | Ok (r, _) ->
          Alcotest.(check (list int)) "exactly the torn ordinal is convicted"
            [ b.ordinal ]
            (List.map (fun (c : S.conviction) -> c.ordinal) r.convicted);
          Alcotest.(check bool) "the conviction is Torn" true
            (List.for_all
               (fun (c : S.conviction) -> c.why = S.Torn)
               r.convicted);
          Alcotest.(check int) "shard 1's reign epoch bumped" 2
            (S.shard_epoch m ~shard:1);
          Alcotest.(check bool) "shard 1's fence stamped from the shared clock"
            true
            (S.shard_fence_at m ~shard:1 > 0))

(* The generation bump makes the stale-superblock conviction hold on a
   multi-seat mapping: after seat 0 recovers and writes on, rolling the
   superblock back to its pre-recovery generation must convict the
   mapping at seat 0's next recovery. *)
let test_fabric_stale_superblock () =
  with_fabric (fun _path m finst ->
      let module I = (val finst : Arc_shm.Shm_arc.INSTANCE) in
      let before = S.epoch m in
      (match Arc_shm.Shm_arc.recover finst ~shard:0 with
      | Error msg -> Alcotest.fail ("clean shard convicted: " ^ msg)
      | Ok _ -> ());
      let src = Array.make 8 0 in
      for k = 4 to 8 do
        Payload.stamp src ~seq:k ~len:8;
        I.R.write I.regs.(0) ~src ~len:8
      done;
      S.unsafe_set m L.sb_epoch before;
      match S.recover m ~shard:0 with
      | Error msg ->
          Alcotest.(check bool)
            "whole-mapping conviction names the stale superblock" true
            (let needle = "stale superblock" in
             let n = String.length needle in
             String.length msg >= n && String.sub msg 0 n = needle)
      | Ok _ ->
          Alcotest.fail
            "a superblock rolled back past a seat's recovery must convict \
             the mapping")

let test_recover_shard_errors () =
  with_fabric (fun _path _m finst ->
      match Arc_shm.Shm_arc.recover finst ~shard:2 with
      | Error msg ->
          Alcotest.(check bool) "out-of-range shard is refused" true
            (String.length msg > 0)
      | Ok _ -> Alcotest.fail "shard 2 of a 2-shard fabric must be refused");
  with_mapping (fun _path m ->
      match S.recover m ~shard:0 with
      | Error msg ->
          Alcotest.(check bool) "mapping without a seat is refused" true
            (let needle = "no reign table" in
             let n = String.length needle and l = String.length msg in
             let rec go i =
               i + n <= l && (String.sub msg i n = needle || go (i + 1))
             in
             go 0)
      | Ok _ -> Alcotest.fail "recover needs a reign table")

let suite =
  [
    Alcotest.test_case "create/attach round-trip" `Quick test_create_attach;
    Alcotest.test_case "attach rejects garbage" `Quick test_attach_rejects_garbage;
    Alcotest.test_case "close unmaps the mapping" `Quick test_close_unmaps;
    Alcotest.test_case "cross-mapping read_latest" `Quick
      test_cross_mapping_read_latest;
    Alcotest.test_case "control: flipped payload convicted" `Quick
      test_convicts_flipped_payload;
    Alcotest.test_case "checksum stubs match the 4-lane reference" `Quick
      test_cksum_stubs_match_reference;
    Alcotest.test_case "publish kernel stores nothing past len" `Quick
      test_publish_stays_in_bounds;
    Alcotest.test_case "racing reader over the shm register" `Quick
      test_racing_reader;
    Alcotest.test_case "control: flipped word convicted in every lane" `Quick
      test_convicts_flip_every_lane;
    Alcotest.test_case "control: swapped adjacent words convicted" `Quick
      test_convicts_adjacent_swap;
    Alcotest.test_case "control: torn trailer convicted" `Quick
      test_convicts_torn_trailer;
    Alcotest.test_case "control: stale superblock convicted" `Quick
      test_convicts_stale_superblock;
    Alcotest.test_case "control: stale layout version convicted" `Quick
      test_convicts_stale_layout_version;
    Alcotest.test_case "election word durable across mappings" `Quick
      test_election_word_durable;
    Alcotest.test_case "control: clean mapping not convicted" `Quick
      test_clean_mapping_not_convicted;
    Alcotest.test_case "quarantine persists across attach" `Quick
      test_quarantine_persists;
    Alcotest.test_case "Shm_arc.recover on a clean instance" `Quick
      test_shm_arc_recover_clean;
    Alcotest.test_case "create refuses a used mapping" `Quick
      test_refuses_used_mapping;
    Alcotest.test_case "create refuses another mapping's memory" `Quick
      test_refuses_foreign_mem;
    Alcotest.test_case "fabric: reign-table accessors and durability" `Quick
      test_fabric_reign_accessors;
    Alcotest.test_case "fabric control: stale layout convicted before the table"
      `Quick test_fabric_stale_layout;
    Alcotest.test_case "fabric control: truncated reign table rejected" `Quick
      test_fabric_truncated_table;
    Alcotest.test_case "fabric: shard-scoped recovery" `Quick
      test_recover_shard_scoped;
    Alcotest.test_case "fabric: recover_shard refusals" `Quick
      test_recover_shard_errors;
    Alcotest.test_case "fabric control: stale superblock convicted" `Quick
      test_fabric_stale_superblock;
  ]
