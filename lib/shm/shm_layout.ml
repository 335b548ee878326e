(* On-file layout of a Shm_mem mapping (DESIGN.md §6d).  Everything a
   recovering process needs to make sense of the bytes a crash left
   behind is derivable from these constants plus the superblock — no
   in-process state survives a SIGKILL, and none is needed.

   The file is an array of machine words:

     [superblock (16 words)][record][record]...[record]   up to cursor

   where each record is either a synchronization cell, a multi-word
   buffer with its integrity trailer, or a raw harness region, all
   self-describing:

     record   = [tag; rec_words; ...payload...]
     cell     = TAG_CELL,   value at a fixed (possibly padded) offset
     buffer   = TAG_BUFFER, 7 header words + payload
     raw      = TAG_RAW,    untyped words (crash-harness write logs);
                            skipped by the integrity scan

   Word 0 of the superblock is the magic number and is written last
   during creation, so a file that died mid-create never attaches. *)

let magic = 0x2A52_4353_484D_0001 (* "*RCSHM" ++ version tail *)

let version = 4
(* Version history:
   1 — original superblock (PR 4).
   2 — writer-election word [sb_election] (term ∥ vote, ISSUE 7).
   3 — reign table pointer [sb_reign] (per-shard election table plus
       the fabric-wide configuration epoch).
   4 — buffer checksum becomes the 4-lane fold below (same trailer
       words, different checksum function): a version-3 trailer would
       convict every intact buffer as [Checksum].
   Attach rejects any skew outright; recover additionally convicts a
   pre-bump mapping as stale instead of misreading word 14 as an
   election state that was never held, or word 15 as a table pointer
   that was never allocated. *)

(* {1 Superblock word indices} *)

let sb_magic = 0
let sb_version = 1
let sb_words = 2 (* total mapped words; must match the file size *)
let sb_cursor = 3 (* allocation cursor (first free word) *)
let sb_cells = 4 (* cell records allocated *)
let sb_buffers = 5 (* buffer records allocated *)

let sb_epoch = 6
(* Writer epoch: bumped by every recovery (and by epoch-fenced handle
   issue when the fence is wired to this cell).  Stamped into every
   buffer trailer at publish time; a trailer epoch {e ahead} of the
   superblock convicts the superblock as stale (resurrected from an
   older copy of the file). *)

let sb_publish = 7
(* Global publish sequence: fetch-add'd by every buffer publish, so
   trailers are totally ordered and recovery can identify the latest
   intact snapshot. *)

let sb_fence_at = 8
(* Shared-clock timestamp of the last recovery — the crash-aware
   checker's fence for the crashed writer's pending write
   ({!Arc_trace.Checker.check_crash} [?fence]).  0 = never
   recovered. *)

let sb_clock = 9
(* Shared logical clock, ticked (fetch-add) by every process that
   records history events against this mapping.  Using one clock for
   all processes is what makes cross-process operation intervals
   comparable — process-local step counters are not. *)

let sb_geom_readers = 10
let sb_geom_capacity = 11
let sb_geom_nslots = 12
(* Register geometry recorded by the creating harness so a fresh
   process can interpret the mapping (slot i's content is buffer i,
   in allocation order).  0/0/0 = not recorded. *)

let sb_harness = 13
(* Base offset of the harness raw region (crash write-log), 0 = none. *)

let sb_election = 14
(* Writer-election word: [term ∥ vote], packed by {!Arc_util.Term_vote}
   (same single-word discipline as ARC's [current]).  Manipulated only
   by seq-cst CAS through {!Shm_mem}'s substrate — a candidate that
   CASes the observed word to (term+1, itself) is the unique winner of
   that term, and the winner then bumps [sb_epoch] (fencing the deposed
   leader) before taking a writer handle.  0 = no election ever held
   (the {!Arc_util.Term_vote.none} word). *)

let sb_reign = 15
(* Base offset of the reign table record ({!tag_reign}), 0 = none —
   single-register mappings never allocate one.  The table holds one
   election word per fabric shard plus the single fabric-wide
   configuration epoch that certifies cross-shard snapshots against
   leader handoffs (DESIGN.md §8b). *)

let super_words = 16

(* {1 Records} *)

let tag_cell = 0xCE11
let tag_buffer = 0xB0FF
let tag_raw = 0x4A57
let tag_reign = 0xE1EC

let rec_tag = 0
let rec_size = 1

(* Cell records: value at [cell_value] for plain cells; contended
   cells pad the value out to its own 128-byte block (cache line plus
   the adjacent-line prefetcher pair), mirroring Real_mem's
   spacer-boxing. *)
let cell_value = 2

let line_words = 16 (* 128 bytes *)

(* Reign table record (tag_reign, layout version 3):

     [tag; rec_words; nshards; ...pad...]
     [config epoch          | line pad ]   <- line-aligned
     [shard 0: election; epoch; fence_at | line pad]
     [shard 1: election; epoch; fence_at | line pad]
     ...

   The configuration epoch and every shard slot each own a full
   128-byte block: the config word is fetch-add'd by every completed
   handoff and plain-loaded twice per certified snapshot, and each
   shard's election word is CAS target for that shard's candidates —
   none of them may false-share with a neighbour.  Within a shard slot
   the three words are intentionally co-located: they are touched
   together, by the same (rare) takeover. *)
let reign_nshards = 2 (* record-relative: shard count, set at alloc *)

let rs_election = 0 (* slot-relative: [term ∥ vote] word *)
let rs_epoch = 1 (* slot-relative: the shard's writer-fence epoch *)
let rs_fence = 2 (* slot-relative: shared-clock stamp of last recovery *)

(* Buffer records: integrity trailer then payload.

   Publish protocol (Shm_mem.write_words): stamp [buf_epoch] and
   [buf_begin] with a fresh publish sequence, store the length, copy
   the payload, store the checksum, then stamp [buf_end] with the
   same sequence.  A crash at any point leaves either
   [buf_begin <> buf_end] (torn mid-write) or a checksum that does
   not match the payload (partial last store, bit corruption) — both
   convictable by {!Shm_mem.recover} from the bytes alone. *)
let buf_cap = 2
let buf_state = 3 (* 0 = live, 1 = quarantined by recovery *)
let buf_len = 4
let buf_epoch = 5
let buf_begin = 6
let buf_end = 7
let buf_cksum = 8
let buf_header = 9 (* payload starts here, relative to record base *)

let state_live = 0
let state_quarantined = 1

(* {1 Checksum}

   FNV-1a-style xor-multiply over the header (len, epoch, seq), then
   four independent lanes over the payload: lane k (k = 0..3) starts
   at [header lxor k] and folds the words i with i mod 4 = k, in
   order; the checksum folds lane 1, 2, 3 into lane 0 with the same
   step:

     cksum = mix (mix (mix lane0 lane1) lane2) lane3

   Four chains instead of one let the computation keep pace with the
   copy (shm_stubs.c computes it in the copy loop itself).  Not
   cryptographic — the threat model is torn writes and stray bit
   flips, not an adversary.  OCaml's native-int wraparound is part of
   the function; it is deterministic across processes on the same
   architecture, which is the only place a mapping is shared. *)

let cksum_seed = 0x2bf29ce484222325 (* FNV offset basis folded into 63 bits *)
let cksum_prime = 0x100000001b3
let cksum_mix acc w = (acc lxor w) * cksum_prime
