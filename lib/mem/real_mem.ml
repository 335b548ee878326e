(** Hardware instance of {!Mem_intf.S}: OCaml 5 [Atomic] for
    synchronization variables, native [int array]s for buffers.

    OCaml atomics are sequentially consistent, which is strictly
    stronger than the TSO fragments the paper's correctness argument
    needs (§3.3); the RMW/plain-load cost asymmetry that ARC's
    fast-path optimization exploits is preserved.

    [fetch_and_or]/[fetch_and_and] have no native OCaml primitive and
    are emulated with CAS retry loops — the standard substitution,
    recorded in DESIGN.md §2.  Each retry is itself an RMW, so the
    counting instance reports the true hardware cost. *)

let name = "real"

type atomic = int Atomic.t

let atomic = Atomic.make

(* Cache-line isolation for hot synchronization words lives in
   {!Isolate} (shared with the telemetry cells of [Arc_obs]): the
   spacer-boxing stand-in for 5.2's [Atomic.make_contended], gated on
   the machine actually having more than one core. *)
let atomic_contended v = Isolate.alloc (fun () -> Atomic.make v)

(* Co-located pair: the two cells are allocated back to back inside
   the padded region, so operations that touch both (ARC's read entry
   and exit, the writer's slot probe) pay one cache line, while other
   slots' counters stay off it. *)
let atomic_contended_pair v1 v2 =
  Isolate.alloc (fun () -> (Atomic.make v1, Atomic.make v2))

let load = Atomic.get
let store = Atomic.set
let exchange = Atomic.exchange
let fetch_and_add = Atomic.fetch_and_add
let add_and_fetch a k = Atomic.fetch_and_add a k + k
let incr a = ignore (Atomic.fetch_and_add a 1)
let compare_and_set = Atomic.compare_and_set

let rec fetch_and_or a mask =
  let old = Atomic.get a in
  if Atomic.compare_and_set a old (old lor mask) then old else fetch_and_or a mask

let rec fetch_and_and a mask =
  let old = Atomic.get a in
  if Atomic.compare_and_set a old (old land mask) then old
  else fetch_and_and a mask

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
