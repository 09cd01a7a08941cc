#ifndef SUBREC_LA_CPU_DISPATCH_H_
#define SUBREC_LA_CPU_DISPATCH_H_

#include <cstddef>
#include <cstdint>

// The la SIMD kernels come in two families, grouped by rounding contract:
//
//   fused — the training GEMM behind la::MatMul* (gemm*.cc). The AVX2 and
//     AVX-512 members are built with -mfma and produce identical bits. The
//     generic member has no FMA on x86-64, so it differs from them in the
//     last bits.
//   exact — the serving GEMM, the sigmoid-mean epilogue and the ANN dot
//     batch behind la/exact_kernel.h (exact_kernel*.cc). Every member is
//     built with -ffp-contract=off and never -mfma, so each product and sum
//     rounds separately in ascending order, exactly like la::Dot, and every
//     member produces the same bits.
//
// Each translation unit holds one family member for one ISA tier and
// exports it as a table of function pointers. The AVX2 and AVX-512 units
// are compiled only on x86-64 GNU/Clang builds, where src/CMakeLists.txt
// gives them their ISA flags. cpu_dispatch.cc probes the CPU once per
// process and is the only place that asks it anything.

namespace subrec::la::internal {

/// Row height of the register tile; row-range parallel splits are made in
/// units of kGemmMr rows so the tile grid is a function of the matrix
/// shape alone (never of the thread count).
inline constexpr size_t kGemmMr = 4;

/// Accumulates C[row0..row_end) += A * B on row-major buffers with leading
/// dimensions lda/ldb/ldc (A is m x k, B is k x n, C is m x n). Each C(i,j)
/// accumulates its k products in ascending-k order, and whether it takes
/// the register tile or the edge loop depends on the shape alone, so the
/// result is identical for any row-range split.
using GemmRowBlockFn = void (*)(const double* a, size_t lda, const double* b,
                                size_t ldb, double* c, size_t ldc, size_t row0,
                                size_t row_end, size_t k, size_t n);

/// out[j] = (sum over rows p ascending of ScoreSigmoid(logits[p][j])) /
/// denom for the m x n tile with leading dimension ld; m == 0 writes zeros.
using SigmoidMeanColumnsFn = void (*)(const double* logits, size_t ld,
                                      size_t m, size_t n, double denom,
                                      double* out);

/// out[i] = <query, slab row nodes[i]> for `count` rows of a row-major slab
/// with row width `dim`.
using DotBatchFn = void (*)(const double* query, const double* slab,
                            size_t dim, const int32_t* nodes, size_t count,
                            double* out);

struct FusedKernels {
  GemmRowBlockFn gemm_row_block;
};

struct ExactKernels {
  GemmRowBlockFn gemm_row_block;
  SigmoidMeanColumnsFn sigmoid_mean_columns;
  DotBatchFn dot_batch;
};

/// ISA tiers, narrowest first.
enum class Isa { kGeneric, kAvx2, kAvx512 };

/// The widest tier this build compiled and this CPU runs: AVX-512F with
/// FMA, else AVX2 with FMA, else generic. Probed once per process. A CPU
/// with AVX2 but no FMA gets the generic tier in both families; for the
/// exact family that costs speed only, never bits.
Isa HostIsa();

/// The member of each family for `isa`, or nullptr when `isa` is wider
/// than HostIsa().
const FusedKernels* FusedKernelsFor(Isa isa);
const ExactKernels* ExactKernelsFor(Isa isa);

/// One table per translation unit; the AVX ones exist only in builds that
/// compile their units.
extern const FusedKernels kFusedGeneric, kFusedAvx2, kFusedAvx512;
extern const ExactKernels kExactGeneric, kExactAvx2, kExactAvx512;

}  // namespace subrec::la::internal

#endif  // SUBREC_LA_CPU_DISPATCH_H_
