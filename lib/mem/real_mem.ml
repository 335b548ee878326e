(** Hardware instance of {!Mem_intf.S}: OCaml 5 [Atomic] for
    synchronization variables, native [int array]s for buffers.

    Loads, RMWs and {!store} are OCaml's sequentially consistent
    atomics.  [Atomic.get] is a bare load, but [Atomic.set] is a
    locked exchange on x86 ([caml_atomic_exchange]), so
    {!store_release} goes through a C stub (real_mem_stubs.c) that is
    a bare MOV on x86-TSO — the paper's plain store (§3.3), and what
    keeps an ARC write at the paper's one RMW on real hardware.

    [fetch_and_or] has no native OCaml primitive and is emulated with
    a CAS retry loop — the standard substitution,
    recorded in DESIGN.md §2.  Each retry is itself an RMW, so the
    counting instance reports the true hardware cost. *)

let name = "real"

type atomic = int Atomic.t

let atomic = Atomic.make

(* Hot words are plain heap atomics.  OCaml 5.1 has no
   [Atomic.make_contended] (it arrives in 5.2), and padding around a
   minor-heap block does not survive promotion: the minor GC copies
   each surviving block into the major-heap pool of its size class,
   so the layout of hot cells is the one promotion gives them
   (DESIGN.md §6).  These two hooks are where 5.2's
   [Atomic.make_contended] goes. *)
let atomic_contended = Atomic.make

(* The two cells are allocated back to back and stay adjacent after
   promotion, so an operation that touches both (ARC's read entry and
   exit, the writer's slot probe) touches one line, or two when the
   pair straddles a line boundary. *)
let atomic_contended_pair v1 v2 = (Atomic.make v1, Atomic.make v2)

let load = Atomic.get
let store = Atomic.set

external store_release : int Atomic.t -> int -> unit = "arc_real_store_release"
[@@noalloc]

let exchange = Atomic.exchange
let fetch_and_add = Atomic.fetch_and_add
let incr a = ignore (Atomic.fetch_and_add a 1)
let compare_and_set = Atomic.compare_and_set

let rec fetch_and_or a mask =
  let old = Atomic.get a in
  if Atomic.compare_and_set a old (old lor mask) then old else fetch_and_or a mask

type buffer = int array

let alloc words =
  if words < 0 then invalid_arg "Real_mem.alloc: negative size";
  Array.make words 0

let capacity = Array.length

(* Bulk operations: one {!Arc_util.Words.blit} each, not
   [Array.blit].  On OCaml 5 [Array.blit] runs the write barrier
   ([caml_modify]) once per word into a major-heap buffer — every slot
   buffer is one after its first minor GC — about 5x the cost of a
   plain store loop.  [Words.blit] stores each word with a relaxed
   atomic store instead: no barrier (the words are immediates), still
   per-word atomic for the racing readers of copy-based baselines and
   of the validated plain scan. *)
let write_words buf ~src ~len =
  if len < 0 || len > Array.length src || len > Array.length buf then
    invalid_arg "Real_mem.write_words: bad length";
  Arc_util.Words.blit src 0 buf 0 len

let read_word = Array.get

let read_words buf ~dst ~len =
  if len < 0 || len > Array.length dst || len > Array.length buf then
    invalid_arg "Real_mem.read_words: bad length";
  Arc_util.Words.blit buf 0 dst 0 len

let blit src dst ~len =
  if len < 0 || len > Array.length src || len > Array.length dst then
    invalid_arg "Real_mem.blit: bad length";
  Arc_util.Words.blit src 0 dst 0 len

(* Spin-loop hint on real hardware (the x86 pause instruction). *)
let cede () = Domain.cpu_relax ()
