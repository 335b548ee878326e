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
 * plain accesses is the point being measured.  Plain load/store are
 * ACQUIRE/RELEASE: on x86-TSO they compile to bare MOVs, which is
 * exactly the "plain load/store" cost model of the paper (§3.3),
 * while still providing the publish/subscribe ordering the
 * correctness argument needs (writer's payload stores happen-before
 * the RELEASE/RMW publish; a reader's ACQUIRE/RMW subscribe
 * happens-before its payload loads).
 *
 * None of these allocate, raise, or call back into the runtime, so
 * they are declared [@@noalloc] on the OCaml side.  The mapping is
 * page-aligned (mmap) and cells are word-indexed, so every access is
 * naturally aligned.
 */

#include <stdint.h>
#include <string.h>
#include <caml/mlvalues.h>
#include <caml/bigarray.h>

static inline intnat *cell(value ba, value idx)
{
  return ((intnat *) Caml_ba_data_val(ba)) + Long_val(idx);
}

CAMLprim value arc_shm_load(value ba, value idx)
{
  return Val_long(__atomic_load_n(cell(ba, idx), __ATOMIC_ACQUIRE));
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

CAMLprim value arc_shm_fetch_and(value ba, value idx, value v)
{
  return Val_long(
      __atomic_fetch_and(cell(ba, idx), Long_val(v), __ATOMIC_SEQ_CST));
}

/* Bulk word copies between OCaml [int array]s (tagged words) and the
 * mapping (untagged words).  memcpy cannot be used directly because
 * the representations differ by the tag bit, but each copy is one C
 * loop that touches each destination cache line once.  Plain
 * (non-atomic) accesses: buffer words are the paper's multi-word
 * data, ordered by the RELEASE/RMW publication protocol, not
 * individually synchronized. */

/* The publish checksum (Shm_layout, layout version 4): four
 * independent FNV-1a-style lanes, lane k folding the words i with
 * i mod 4 = k, each seeded with [seed ^ k] where [seed] is the
 * (len, epoch, seq) header fold computed on the OCaml side; the lanes
 * are then folded in order, lane 0 first, with the same xor-multiply
 * step.  A single serial chain is latency-bound on the multiply
 * (about 4 cycles per word); four chains keep the multiplier busy
 * and let the check ride along with the copy at memory speed.
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

/* The register write's single pass over the payload: copy [len]
 * words of [src] into the mapping at [off] and return their
 * checksum. */
CAMLprim value arc_shm_write_words_cksum(value ba, value off, value src,
                                         value len, value seed)
{
  intnat *dst = cell(ba, off);
  const value *s = Op_val(src);
  intnat n = Long_val(len), i = 0;
  LANES_INIT(seed);
  for (; i + 4 <= n; i += 4) {
    intnat w0 = Long_val(s[i]), w1 = Long_val(s[i + 1]),
           w2 = Long_val(s[i + 2]), w3 = Long_val(s[i + 3]);
    dst[i] = w0;
    dst[i + 1] = w1;
    dst[i + 2] = w2;
    dst[i + 3] = w3;
    MIX(l0, w0);
    MIX(l1, w1);
    MIX(l2, w2);
    MIX(l3, w3);
  }
  /* Tail of len mod 4 words: lanes 0, 1, 2 in turn. */
  for (intnat k = 0; i < n; i++, k++) {
    intnat w = Long_val(s[i]);
    dst[i] = w;
    if (k == 0) MIX(l0, w);
    else if (k == 1) MIX(l1, w);
    else MIX(l2, w);
  }
  return lanes_fold(l0, l1, l2, l3);
}

/* Recompute the checksum of [len] mapping words at [off] — the
 * recovery scan's verdict on a published buffer. */
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
