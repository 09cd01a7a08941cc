#ifndef SUBREC_LA_EXACT_KERNEL_H_
#define SUBREC_LA_EXACT_KERNEL_H_

#include <cstddef>
#include <cstdint>

// The exact kernel family's entry points: the serving GEMM, its scoring
// epilogue and the ANN distance batch. Each dispatches once per process to
// the widest member the CPU runs (la/cpu_dispatch.h). Every member rounds
// exactly like the scalar oracle — ascending order, a separate multiply
// then add per step, never a fused multiply-add — so the results are the
// same bits on every ISA: the batched serving logits match the pairwise
// ones, and HnswIndex distances never depend on the host CPU.

namespace subrec::la {

/// C (m x n, leading dim ldc) = A (m x k, lda) * B (k x n, ldb), zeroing C
/// first. Row-major raw buffers. Bit-exact against computing each C(i,j)
/// as la::Dot of A's row i and B's column j.
void ServeGemm(const double* a, size_t lda, const double* b, size_t ldb,
               double* c, size_t ldc, size_t m, size_t k, size_t n);

/// Scoring epilogue: column means of the sigmoid-squashed logit tile
/// (m x n, leading dim ld), profile rows accumulated in ascending order,
/// divided by `denom` (the profile size — division, not reciprocal
/// multiply, to match the oracle). m == 0 writes zeros.
void ServeSigmoidMeanColumns(const double* logits, size_t ld, size_t m,
                             size_t n, double denom, double* out);

/// Gathers `count` rows of the row-major slab (row width k) into a
/// transposed tile: bt[d * count + i] = slab[ids[i] * k + d]. Pure data
/// movement — no rounding — so it needs no ISA dispatch for determinism.
void ServeGatherTranspose(const double* slab, size_t k, const int32_t* ids,
                          size_t count, double* bt);

/// out[i] = inner product of `query` with row nodes[i] of the row-major
/// `slab` (row width `dim`), for i in [0, count). Bit-identical to
/// la::Dot(query, slab + nodes[i] * dim, dim).
void AnnDotBatch(const double* query, const double* slab, size_t dim,
                 const int32_t* nodes, size_t count, double* out);

}  // namespace subrec::la

#endif  // SUBREC_LA_EXACT_KERNEL_H_
