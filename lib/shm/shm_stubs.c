/* Atomic word operations on an mmap'd Bigarray — the machine-level
 * substrate of Shm_mem.
 *
 * OCaml 5's [Atomic] only covers heap cells, so a register shared
 * between OS processes through a mapped file needs its
 * synchronization words accessed with real hardware atomics on the
 * mapping itself.  These stubs apply the GCC/Clang __atomic builtins
 * to naturally aligned machine words inside a Bigarray of kind
 * [Bigarray.int] (one untagged word per element, so OCaml ints
 * round-trip exactly).
 *
 * Memory orders: RMW operations are SEQ_CST — they are the
 * synchronization instructions of the paper's algorithms (W2
 * exchange, R3/R4 presence counters) and their cost asymmetry versus
 * plain accesses is the point being measured.  The load is SEQ_CST
 * and the store RELEASE: on x86-TSO both compile to bare MOVs, which
 * is exactly the "plain load/store" cost model of the paper (§3.3),
 * while still providing the publish/subscribe ordering the
 * correctness argument needs (writer's payload stores happen-before
 * the RELEASE/RMW publish; a reader's load or RMW subscribe
 * happens-before its payload loads).  Shm_mem's sequentially
 * consistent [store] is [arc_shm_exchange] with the result dropped;
 * [arc_shm_store] is its [store_release].
 *
 * None of these allocate, raise, or call back into the runtime, so
 * they are declared [@@noalloc] on the OCaml side.  The mapping is
 * page-aligned (mmap) and cells are word-indexed, so every access is
 * naturally aligned.
 */

#include <stdint.h>
#include <string.h>
#include <sys/mman.h>
#include <caml/mlvalues.h>
#include <caml/bigarray.h>

static inline intnat *cell(value ba, value idx)
{
  return ((intnat *) Caml_ba_data_val(ba)) + Long_val(idx);
}

CAMLprim value arc_shm_load(value ba, value idx)
{
  return Val_long(__atomic_load_n(cell(ba, idx), __ATOMIC_SEQ_CST));
}

CAMLprim value arc_shm_store(value ba, value idx, value v)
{
  __atomic_store_n(cell(ba, idx), Long_val(v), __ATOMIC_RELEASE);
  return Val_unit;
}

CAMLprim value arc_shm_exchange(value ba, value idx, value v)
{
  return Val_long(
      __atomic_exchange_n(cell(ba, idx), Long_val(v), __ATOMIC_SEQ_CST));
}

CAMLprim value arc_shm_fetch_add(value ba, value idx, value v)
{
  return Val_long(
      __atomic_fetch_add(cell(ba, idx), Long_val(v), __ATOMIC_SEQ_CST));
}

CAMLprim value arc_shm_cas(value ba, value idx, value expected, value desired)
{
  intnat exp = Long_val(expected);
  return Val_bool(__atomic_compare_exchange_n(
      cell(ba, idx), &exp, Long_val(desired), 0 /* strong */,
      __ATOMIC_SEQ_CST, __ATOMIC_SEQ_CST));
}

CAMLprim value arc_shm_fetch_or(value ba, value idx, value v)
{
  return Val_long(
      __atomic_fetch_or(cell(ba, idx), Long_val(v), __ATOMIC_SEQ_CST));
}

/* Bulk word copies between OCaml [int array]s (tagged words) and the
 * mapping (untagged words).  memcpy cannot be used directly because
 * the representations differ by the tag bit, but each copy is one C
 * loop that touches each destination cache line once.  Buffer words
 * are the paper's multi-word data, ordered by the RELEASE/RMW
 * publication protocol, not individually synchronized. */

/* The publish checksum (Shm_layout, since layout version 4): four
 * independent FNV-1a-style lanes, lane k folding the words i with
 * i mod 4 = k, each seeded with [seed ^ k] where [seed] is the
 * (len, epoch, seq) header fold computed on the OCaml side; the lanes
 * are then folded in order, lane 0 first, with the same xor-multiply
 * step.  A single serial chain is latency-bound on the multiply
 * (about 4 cycles per word); four chains keep the multiplier busy.
 *
 * OCaml ints are 63-bit two's complement, so the OCaml definition of
 * the step wraps modulo 2^63.  Computing in 64-bit unsigned
 * arithmetic over the sign-extended words gives the same low 63 bits
 * (the low bits of a xor or a product depend only on the low bits of
 * the operands), and [Val_long] drops the 64th — the result is
 * bit-identical to the OCaml fold. */

#define CKSUM_PRIME ((uint64_t) 0x100000001b3)
#define MIX(lane, w) ((lane) = ((lane) ^ (uint64_t) (w)) * CKSUM_PRIME)

/* The lanes are four named locals, not an array: the compiler must
 * keep them in registers across the loop even though the payload
 * stores may alias any [uint64_t] in memory. */
#define LANES_INIT(seed)                                                \
  uint64_t l0 = (uint64_t) Long_val(seed), l1 = l0 ^ 1, l2 = l0 ^ 2,    \
           l3 = l0 ^ 3

static inline value lanes_fold(uint64_t l0, uint64_t l1, uint64_t l2,
                               uint64_t l3)
{
  MIX(l0, l1);
  MIX(l0, l2);
  MIX(l0, l3);
  return Val_long((intnat) l0);
}

/* Publish source word [j] into the mapping and fold it into [lane]. */
#define PUBLISH(j, lane)                                                \
  do {                                                                  \
    intnat w_ = Long_val(s[j]);                                         \
    __atomic_store_n(dst + (j), w_, __ATOMIC_RELAXED);                  \
    MIX(lane, w_);                                                      \
  } while (0)

#define PUBLISH4(j)                                                     \
  do {                                                                  \
    PUBLISH(j, l0);                                                     \
    PUBLISH((j) + 1, l1);                                               \
    PUBLISH((j) + 2, l2);                                               \
    PUBLISH((j) + 3, l3);                                               \
  } while (0)

/* The register write's single pass over the payload: copy [len]
 * words of [src] into the mapping at [off] and return their
 * checksum.
 *
 * The pass runs at the checksum's floor: each lane's xor-multiply
 * chain is the critical path, and the loop adds nothing to it.  At
 * 128 KB (16384 words, GCC 12 -O2, 2-vCPU x86-64 VM, best of 5 x 1000
 * calls) the pass costs 0.35-0.40 ns/word, the four chains alone
 * 0.33-0.39 ns/word, and a plain memcpy of the same words 0.24.  The
 * earlier loop stored with plain assignments and cost 0.54-0.67
 * ns/word: GCC's SLP vectorizer packed each 4-word group into SSE2
 * registers to emulate the 64-bit untag shift, then moved every word
 * back to a general register for its multiply.  Compilers never
 * vectorize atomic accesses, so the relaxed stores keep the loop
 * scalar by what the code says, with no compiler flag or attribute.
 * They also state the word-granular atomicity a racing R2' plain
 * reader relies on (every word it loads is old or new, never a torn
 * mix), the discipline of [Arc_util.Words.blit] and the runtime's
 * own [wo_memmove]; on x86-64 and AArch64 they are plain moves.  Two
 * 4-word groups per iteration halve the loop overhead per word.
 *
 * Residual: 4K aliasing.  A destination 128-256 bytes past the
 * source modulo 4 KiB can make the loads falsely wait on pending
 * stores; an earlier measurement put that at about 1.5x the floor
 * (2.2x for the vectorized loop), though a sweep of the offset did
 * not reproduce it on the host measured above (DESIGN.md §6d).
 *
 * Both checksum kernels start on a 64-byte boundary, so a stub added
 * or removed elsewhere in this file cannot move their loops within a
 * cache line (DESIGN.md §6). */
__attribute__((aligned(64)))
CAMLprim value arc_shm_write_words_cksum(value ba, value off, value src,
                                         value len, value seed)
{
  intnat *dst = cell(ba, off);
  const value *s = Op_val(src);
  intnat n = Long_val(len), i = 0;
  LANES_INIT(seed);
  for (; i + 8 <= n; i += 8) {
    PUBLISH4(i);
    PUBLISH4(i + 4);
  }
  if (i + 4 <= n) {
    PUBLISH4(i);
    i += 4;
  }
  /* Tail of len mod 4 words: lanes 0, 1, 2 in turn. */
  for (intnat k = 0; i < n; i++, k++) {
    if (k == 0) PUBLISH(i, l0);
    else if (k == 1) PUBLISH(i, l1);
    else PUBLISH(i, l2);
  }
  return lanes_fold(l0, l1, l2, l3);
}

/* Recompute the checksum of [len] mapping words at [off] — the
 * recovery scan's verdict on a published buffer. */
__attribute__((aligned(64)))
CAMLprim value arc_shm_cksum(value ba, value off, value len, value seed)
{
  const intnat *src = cell(ba, off);
  intnat n = Long_val(len), i = 0;
  LANES_INIT(seed);
  for (; i + 4 <= n; i += 4) {
    MIX(l0, src[i]);
    MIX(l1, src[i + 1]);
    MIX(l2, src[i + 2]);
    MIX(l3, src[i + 3]);
  }
  for (intnat k = 0; i < n; i++, k++) {
    if (k == 0) MIX(l0, src[i]);
    else if (k == 1) MIX(l1, src[i]);
    else MIX(l2, src[i]);
  }
  return lanes_fold(l0, l1, l2, l3);
}

CAMLprim value arc_shm_read_words(value ba, value off, value dst, value len)
{
  intnat *src = cell(ba, off);
  intnat n = Long_val(len);
  /* dst is an [int array]: immediate fields, no write barrier needed. */
  for (intnat i = 0; i < n; i++) Field(dst, i) = Val_long(src[i]);
  return Val_unit;
}

CAMLprim value arc_shm_blit(value ba, value src_off, value dst_off, value len)
{
  intnat *base = (intnat *) Caml_ba_data_val(ba);
  memmove(base + Long_val(dst_off), base + Long_val(src_off),
          Long_val(len) * sizeof(intnat));
  return Val_unit;
}

/* Unmap a mapping at close.  Its dimension becomes 0, so the
 * finalizer of the mapped bigarray (which unmaps the array's byte
 * size) has nothing left to unmap, and a bounds-checked OCaml access
 * raises Invalid_argument.  The data pointer becomes NULL, so a stray
 * atomic access faults instead of reaching whatever the kernel maps
 * at the freed addresses next.  A mapping is page-aligned (offset 0),
 * and a second call finds nothing to unmap. */
CAMLprim value arc_shm_unmap(value ba)
{
  struct caml_ba_array *b = Caml_ba_array_val(ba);
  uintnat bytes = caml_ba_byte_size(b);
  if (bytes > 0) munmap(b->data, bytes);
  b->data = NULL;
  b->dim[0] = 0;
  return Val_unit;
}
