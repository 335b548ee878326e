/* Release store into an OCaml [int Atomic.t] — Real_mem.store_release.
 *
 * OCaml 5.1 has no weaker-than-SC atomic store: [Atomic.set] runs
 * [caml_atomic_exchange], a locked exchange on x86 that waits out the
 * line's cache miss before the next instruction.  ARC's slot
 * bookkeeping stores need only release order (DESIGN.md §6), which on
 * x86-TSO is a bare MOV, as in the paper's C.
 *
 * An [int Atomic.t] is a one-field block whose field only ever holds
 * an immediate, so skipping the write barrier is safe by the argument
 * of words_stubs.c: there is no old-to-young pointer to remember and
 * no overwritten block to darken.  The stub neither allocates nor
 * raises, so it is declared [@@noalloc].
 *
 * Aligned to a cache line, like [arc_words_blit], so adding or
 * removing a stub cannot shift the hot copy loop's placement
 * (DESIGN.md §6).
 */

#include <caml/mlvalues.h>

__attribute__((aligned(64)))
CAMLprim value arc_real_store_release(value cell, value v)
{
  __atomic_store_n(&Field(cell, 0), v, __ATOMIC_RELEASE);
  return Val_unit;
}
