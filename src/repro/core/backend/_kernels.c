/* Compiled mirrors of repro.core.backend.fallback (the cext engine).
 *
 * Every function must be bit-identical to its numpy reference:
 * uint64 arithmetic wraps modulo 2**64 exactly as numpy's does, the
 * sorts are stable (counting sort / bottom-up merge sort), and bitset
 * bytes are little-endian (bit i at byte i>>3, mask 1<<(i&7)).
 * Property-tested against the fallback in
 * tests/core/test_backend_parity.py.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define MASK32 0xFFFFFFFFULL

void repro_hash_avalanche(const uint64_t *values, int64_t n,
                          uint64_t mult, uint64_t *out)
{
    for (int64_t i = 0; i < n; i++)
        out[i] = (values[i] * mult) & MASK32;
}

void repro_hash_legacy(const uint64_t *values, int64_t n, uint64_t mult,
                       uint64_t offset, uint64_t *out)
{
    for (int64_t i = 0; i < n; i++)
        out[i] = (values[i] * mult + offset) & MASK32;
}

void repro_remix(const uint64_t *codes, int64_t n, uint64_t *out)
{
    for (int64_t i = 0; i < n; i++) {
        uint64_t z = (codes[i] + 0x9E3779B9ULL) & MASK32;
        z = ((z ^ (z >> 16)) * 0x85EBCA6BULL) & MASK32;
        z = ((z ^ (z >> 13)) * 0xC2B2AE35ULL) & MASK32;
        out[i] = z ^ (z >> 16);
    }
}

void repro_filter_slots(const uint64_t *codes, int64_t n,
                        uint64_t num_bits, int64_t *out)
{
    for (int64_t i = 0; i < n; i++) {
        uint64_t z = (codes[i] + 0x9E3779B9ULL) & MASK32;
        z = ((z ^ (z >> 16)) * 0x85EBCA6BULL) & MASK32;
        z = ((z ^ (z >> 13)) * 0xC2B2AE35ULL) & MASK32;
        z ^= z >> 16;
        out[i] = (int64_t)(z % num_bits);
    }
}

/* Stable group split via counting sort: identical permutation to a
 * stable argsort because both orders are fully determined by
 * (group, input position).  ``counts`` must hold n_groups slots.
 * Returns the number of non-empty segments. */
int64_t repro_split_groups(const int64_t *groups, int64_t n,
                           int64_t n_groups, int64_t *counts,
                           int64_t *order, int64_t *starts,
                           int64_t *ends, int64_t *seg_groups)
{
    memset(counts, 0, (size_t)n_groups * sizeof(int64_t));
    for (int64_t i = 0; i < n; i++)
        counts[groups[i]]++;
    int64_t nseg = 0, base = 0;
    for (int64_t g = 0; g < n_groups; g++) {
        if (counts[g]) {
            starts[nseg] = base;
            base += counts[g];
            ends[nseg] = base;
            seg_groups[nseg] = g;
            counts[g] = starts[nseg];  /* reuse as scatter cursor */
            nseg++;
        }
    }
    for (int64_t i = 0; i < n; i++)
        order[counts[groups[i]]++] = i;
    return nseg;
}

/* Bottom-up merge sort of (key, index) pairs by key — stable, so the
 * permutation equals numpy's stable argsort. */
static void merge_runs(const int64_t *keys, const int64_t *src,
                       int64_t *dst, int64_t lo, int64_t mid,
                       int64_t hi)
{
    int64_t i = lo, j = mid, k = lo;
    while (i < mid && j < hi) {
        if (keys[src[j]] < keys[src[i]])
            dst[k++] = src[j++];
        else
            dst[k++] = src[i++];
    }
    while (i < mid) dst[k++] = src[i++];
    while (j < hi) dst[k++] = src[j++];
}

/* Stable hash-ordered arena index.  ``scratch`` must hold n slots.
 * Writes the sorted permutation into ``order`` and the segment
 * boundaries of equal hashes into starts/ends/keys; returns the
 * number of segments, with *max_chain the widest segment. */
int64_t repro_arena_ranges(const int64_t *hashes, int64_t n,
                           int64_t *scratch, int64_t *order,
                           int64_t *starts, int64_t *ends,
                           int64_t *keys, int64_t *max_chain)
{
    int64_t *a = order, *b = scratch;
    for (int64_t i = 0; i < n; i++)
        a[i] = i;
    for (int64_t width = 1; width < n; width *= 2) {
        for (int64_t lo = 0; lo < n; lo += 2 * width) {
            int64_t mid = lo + width < n ? lo + width : n;
            int64_t hi = lo + 2 * width < n ? lo + 2 * width : n;
            merge_runs(hashes, a, b, lo, mid, hi);
        }
        int64_t *tmp = a; a = b; b = tmp;
    }
    if (a != order)
        memcpy(order, a, (size_t)n * sizeof(int64_t));
    int64_t nseg = 0, widest = 0;
    int64_t i = 0;
    while (i < n) {
        int64_t key = hashes[order[i]];
        int64_t j = i + 1;
        while (j < n && hashes[order[j]] == key)
            j++;
        starts[nseg] = i;
        ends[nseg] = j;
        keys[nseg] = key;
        if (j - i > widest)
            widest = j - i;
        nseg++;
        i = j;
    }
    *max_chain = widest;
    return nseg;
}

void repro_marks_word(const int64_t *slots, int64_t n, uint8_t *bytes,
                      int64_t n_bytes)
{
    memset(bytes, 0, (size_t)n_bytes);
    for (int64_t i = 0; i < n; i++)
        bytes[slots[i] >> 3] |= (uint8_t)(1u << (slots[i] & 7));
}

void repro_unpack_bits(const uint8_t *bytes, int64_t num_bits,
                       uint8_t *out)
{
    for (int64_t i = 0; i < num_bits; i++)
        out[i] = (bytes[i >> 3] >> (i & 7)) & 1u;
}
