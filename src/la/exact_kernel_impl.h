#ifndef SUBREC_LA_EXACT_KERNEL_IMPL_H_
#define SUBREC_LA_EXACT_KERNEL_IMPL_H_

// Textual kernel body of the exact family (la/cpu_dispatch.h) past its GEMM,
// which comes from la/gemm_kernel.h: the ANN dot batch and the sigmoid-mean
// scoring epilogue. Each exact translation unit defines SUBREC_KERNEL_NS to
// its own namespace and includes both headers, so the identical source is
// compiled under its ISA flags — exact_kernel.cc: baseline;
// exact_kernel_avx2.cc: -mavx2; exact_kernel_avx512.cc: -mavx512f; all
// three with -ffp-contract=off and never -mfma.
//
// DotBatch layout: one CANDIDATE per vector lane. A group of L candidate
// rows is walked in ascending-d order, so each lane performs the exact
// separate-multiply-then-add sequence the scalar loop (la::Dot) performs
// for that candidate. Lane grouping never splits a single dot product
// across lanes — splitting would reorder the summation and change low
// bits. The vector width therefore only changes how many candidates
// advance per step, never any output element's value.
//
// The inner loop walks d in blocks of L: one contiguous vector load per
// candidate row, an L x L in-register transpose, then L
// broadcast-multiply-add steps in ascending d. The obvious alternative —
// gathering the d-th element of every row each step — issues L scalar
// loads plus inserts per multiply-add and measures SLOWER than the plain
// scalar loop (out-of-order cores already overlap independent scalar dot
// chains); the transpose form reaches the same element layout with wide
// loads and ~3 shuffles per multiply-add and is what actually beats it.
// Batches run the widest block that fits, then narrower ones: under
// AVX-512 a count-13 batch goes 8 + 4 + 1, so beam-search batches between
// 4 and 7 — common at M=16 — still vectorize instead of falling scalar.

#include <cstddef>
#include <cstdint>

#include "la/score_math.h"

#ifndef SUBREC_KERNEL_NS
#error "define SUBREC_KERNEL_NS before including la/exact_kernel_impl.h"
#endif

// __builtin_shufflevector: clang always; GCC since 12. Without it there is
// no portable lane permute, so the whole vector path falls away.
#if (defined(__clang__) || (defined(__GNUC__) && __GNUC__ >= 12)) && \
    defined(__AVX__)
#define SUBREC_ANN_VECTOR_OK 1
#else
#define SUBREC_ANN_VECTOR_OK 0
#endif

namespace subrec::la::internal {
namespace SUBREC_KERNEL_NS {

#if SUBREC_ANN_VECTOR_OK

typedef double Vec4 __attribute__((vector_size(32)));

/// 4x4 transpose so t[c][l] = r[l][c]: two butterfly stages, 8 shuffles.
/// A pure lane permutation — no arithmetic, so no rounding anywhere.
inline void Transpose(const Vec4* r, Vec4* t) {
  const Vec4 a0 = __builtin_shufflevector(r[0], r[1], 0, 4, 2, 6);
  const Vec4 a1 = __builtin_shufflevector(r[0], r[1], 1, 5, 3, 7);
  const Vec4 a2 = __builtin_shufflevector(r[2], r[3], 0, 4, 2, 6);
  const Vec4 a3 = __builtin_shufflevector(r[2], r[3], 1, 5, 3, 7);
  t[0] = __builtin_shufflevector(a0, a2, 0, 1, 4, 5);
  t[1] = __builtin_shufflevector(a1, a3, 0, 1, 4, 5);
  t[2] = __builtin_shufflevector(a0, a2, 2, 3, 6, 7);
  t[3] = __builtin_shufflevector(a1, a3, 2, 3, 6, 7);
}

#if defined(__AVX512F__)

typedef double Vec8 __attribute__((vector_size(64)));

/// 8x8 transpose: three butterfly stages, 24 shuffles.
inline void Transpose(const Vec8* r, Vec8* t) {
  const Vec8 a0 = __builtin_shufflevector(r[0], r[1], 0, 8, 2, 10, 4, 12, 6, 14);
  const Vec8 a1 = __builtin_shufflevector(r[0], r[1], 1, 9, 3, 11, 5, 13, 7, 15);
  const Vec8 a2 = __builtin_shufflevector(r[2], r[3], 0, 8, 2, 10, 4, 12, 6, 14);
  const Vec8 a3 = __builtin_shufflevector(r[2], r[3], 1, 9, 3, 11, 5, 13, 7, 15);
  const Vec8 a4 = __builtin_shufflevector(r[4], r[5], 0, 8, 2, 10, 4, 12, 6, 14);
  const Vec8 a5 = __builtin_shufflevector(r[4], r[5], 1, 9, 3, 11, 5, 13, 7, 15);
  const Vec8 a6 = __builtin_shufflevector(r[6], r[7], 0, 8, 2, 10, 4, 12, 6, 14);
  const Vec8 a7 = __builtin_shufflevector(r[6], r[7], 1, 9, 3, 11, 5, 13, 7, 15);
  const Vec8 b0 = __builtin_shufflevector(a0, a2, 0, 1, 8, 9, 4, 5, 12, 13);
  const Vec8 b1 = __builtin_shufflevector(a1, a3, 0, 1, 8, 9, 4, 5, 12, 13);
  const Vec8 b2 = __builtin_shufflevector(a0, a2, 2, 3, 10, 11, 6, 7, 14, 15);
  const Vec8 b3 = __builtin_shufflevector(a1, a3, 2, 3, 10, 11, 6, 7, 14, 15);
  const Vec8 b4 = __builtin_shufflevector(a4, a6, 0, 1, 8, 9, 4, 5, 12, 13);
  const Vec8 b5 = __builtin_shufflevector(a5, a7, 0, 1, 8, 9, 4, 5, 12, 13);
  const Vec8 b6 = __builtin_shufflevector(a4, a6, 2, 3, 10, 11, 6, 7, 14, 15);
  const Vec8 b7 = __builtin_shufflevector(a5, a7, 2, 3, 10, 11, 6, 7, 14, 15);
  t[0] = __builtin_shufflevector(b0, b4, 0, 1, 2, 3, 8, 9, 10, 11);
  t[1] = __builtin_shufflevector(b1, b5, 0, 1, 2, 3, 8, 9, 10, 11);
  t[2] = __builtin_shufflevector(b2, b6, 0, 1, 2, 3, 8, 9, 10, 11);
  t[3] = __builtin_shufflevector(b3, b7, 0, 1, 2, 3, 8, 9, 10, 11);
  t[4] = __builtin_shufflevector(b0, b4, 4, 5, 6, 7, 12, 13, 14, 15);
  t[5] = __builtin_shufflevector(b1, b5, 4, 5, 6, 7, 12, 13, 14, 15);
  t[6] = __builtin_shufflevector(b2, b6, 4, 5, 6, 7, 12, 13, 14, 15);
  t[7] = __builtin_shufflevector(b3, b7, 4, 5, 6, 7, 12, 13, 14, 15);
}

#endif  // __AVX512F__

/// L candidates' inner products, one per lane, d ascending in blocks of L
/// with a scalar continuation for the dim % L tail.
template <typename Vec, size_t L>
inline void DotBlock(const double* query, size_t dim,
                     const double* const* rows, double* out) {
  Vec acc = {};
  size_t d = 0;
  for (; d + L <= dim; d += L) {
    Vec r[L];
    for (size_t l = 0; l < L; ++l) {
      // Unaligned contiguous load of rows[l][d .. d+L-1].
      __builtin_memcpy(&r[l], rows[l] + d, sizeof(Vec));
    }
    Vec t[L];
    Transpose(r, t);
    for (size_t j = 0; j < L; ++j) {
      Vec q = {};
      for (size_t l = 0; l < L; ++l) q[l] = query[d + j];
      acc += q * t[j];  // -ffp-contract=off: separate multiply, then add.
    }
  }
  for (size_t l = 0; l < L; ++l) {
    double a = acc[l];
    for (size_t dt = d; dt < dim; ++dt) a += query[dt] * rows[l][dt];
    out[l] = a;
  }
}

#endif  // SUBREC_ANN_VECTOR_OK

/// One candidate's inner product, the oracle sequence itself: ascending-d,
/// separate multiply then add. Both the batch tail and the scalar TU use it.
inline double DotOne(const double* query, const double* row, size_t dim) {
  double acc = 0.0;
  for (size_t d = 0; d < dim; ++d) acc += query[d] * row[d];
  return acc;
}

inline void DotBatch(const double* query, const double* slab, size_t dim,
                     const int32_t* nodes, size_t count, double* out) {
  size_t i = 0;
#if SUBREC_ANN_VECTOR_OK
#if defined(__AVX512F__)
  for (; i + 8 <= count; i += 8) {
    const double* rows[8];
    for (size_t l = 0; l < 8; ++l)
      rows[l] = slab + static_cast<size_t>(nodes[i + l]) * dim;
    // Touch the next block's rows while this one computes: the rows are
    // scattered across a slab far bigger than L2, so the first line of
    // each is a cache miss the hardware prefetcher can't predict. One
    // block of compute is enough slack to hide it.
    if (i + 16 <= count) {
      for (size_t l = 0; l < 8; ++l)
        __builtin_prefetch(slab + static_cast<size_t>(nodes[i + 8 + l]) * dim);
    }
    DotBlock<Vec8, 8>(query, dim, rows, out + i);
  }
#endif
  for (; i + 4 <= count; i += 4) {
    const double* rows[4];
    for (size_t l = 0; l < 4; ++l)
      rows[l] = slab + static_cast<size_t>(nodes[i + l]) * dim;
    if (i + 8 <= count) {
      for (size_t l = 0; l < 4; ++l)
        __builtin_prefetch(slab + static_cast<size_t>(nodes[i + 4 + l]) * dim);
    }
    DotBlock<Vec4, 4>(query, dim, rows, out + i);
  }
#endif
  for (; i < count; ++i)
    out[i] = DotOne(query, slab + static_cast<size_t>(nodes[i]) * dim, dim);
}

/// Scoring epilogue over one logit tile: out[j] is the sum over rows p, in
/// ascending order, of ScoreSigmoid(logits[p][j]), divided by `denom`. The
/// profile order is the oracle's, and ScoreSigmoid is a branch-free
/// per-element sequence, so the compiler may vectorize across columns (it
/// does, with gathers for the exp table) without changing any element's
/// bits — the ISA only sets how many columns advance per iteration.
inline void SigmoidMeanColumns(const double* logits, size_t ld, size_t m,
                               size_t n, double denom, double* out) {
  for (size_t j = 0; j < n; ++j) out[j] = 0.0;
  for (size_t p = 0; p < m; ++p) {
    const double* row = logits + p * ld;
    for (size_t j = 0; j < n; ++j) out[j] += ScoreSigmoid(row[j]);
  }
  if (m == 0) return;
  for (size_t j = 0; j < n; ++j) out[j] /= denom;
}

}  // namespace SUBREC_KERNEL_NS
}  // namespace subrec::la::internal

#undef SUBREC_ANN_VECTOR_OK

#endif  // SUBREC_LA_EXACT_KERNEL_IMPL_H_
