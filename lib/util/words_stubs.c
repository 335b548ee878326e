/* Word copy between OCaml [int array]s without the write barrier.
 *
 * On OCaml 5 [Array.blit] into a major-heap array runs [caml_modify]
 * once per word: the runtime cannot tell an [int array] from an array
 * of pointers.  Every field of an [int array] is an immediate, so
 * there is no old-to-young pointer to remember and no overwritten
 * block to darken — the barrier is pure overhead here.
 *
 * Each word is copied with a relaxed atomic load and a relaxed atomic
 * store, the discipline of the runtime's own [wo_memmove]: a racing
 * reader (Peterson's copy-out, ARC's validated plain scan) sees every
 * word either old or new, never a torn mix of bytes, and the compiler
 * may not split, merge or re-read the accesses.  On x86-64 and
 * AArch64 relaxed word accesses compile to plain moves.
 *
 * The copy direction follows memmove when source and destination
 * overlap in one array.  Bounds are checked on the OCaml side; the
 * stub neither allocates nor raises, so it is declared [@@noalloc].
 */

#include <caml/mlvalues.h>

CAMLprim value arc_words_blit(value src, value src_pos, value dst,
                              value dst_pos, value len)
{
  value *s = Op_val(src) + Long_val(src_pos);
  value *d = Op_val(dst) + Long_val(dst_pos);
  intnat n = Long_val(len);
  if (d <= s || d >= s + n) {
    for (intnat i = 0; i < n; i++)
      __atomic_store_n(d + i, __atomic_load_n(s + i, __ATOMIC_RELAXED),
                       __ATOMIC_RELAXED);
  } else {
    for (intnat i = n - 1; i >= 0; i--)
      __atomic_store_n(d + i, __atomic_load_n(s + i, __ATOMIC_RELAXED),
                       __ATOMIC_RELAXED);
  }
  return Val_unit;
}
