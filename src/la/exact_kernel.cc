// Generic member of the exact kernel family (la/cpu_dispatch.h) plus the
// public entry points of la/exact_kernel.h. Compiled with
// -ffp-contract=off on every GNU/Clang target (src/CMakeLists.txt), so no
// default-flag change can fuse a multiply-add here either.

#include "la/exact_kernel.h"

#include <cstddef>
#include <cstdint>

#include "la/cpu_dispatch.h"

#define SUBREC_KERNEL_NS exact_generic
#include "la/gemm_kernel.h"         // NOLINT(build/include)
#include "la/exact_kernel_impl.h"  // NOLINT(build/include)

namespace subrec::la {
namespace internal {

const ExactKernels kExactGeneric = {exact_generic::GemmRowBlock,
                                    exact_generic::SigmoidMeanColumns,
                                    exact_generic::DotBatch};

}  // namespace internal

namespace {

// This CPU's member, copied on first use so each call costs one guarded
// static load.
const internal::ExactKernels& HostKernels() {
  static const internal::ExactKernels kernels =
      *internal::ExactKernelsFor(internal::HostIsa());
  return kernels;
}

}  // namespace

void ServeGemm(const double* a, size_t lda, const double* b, size_t ldb,
               double* c, size_t ldc, size_t m, size_t k, size_t n) {
  const internal::GemmRowBlockFn fn = HostKernels().gemm_row_block;
  for (size_t i = 0; i < m; ++i) {
    double* row = c + i * ldc;
    for (size_t j = 0; j < n; ++j) row[j] = 0.0;
  }
  fn(a, lda, b, ldb, c, ldc, 0, m, k, n);
}

void ServeSigmoidMeanColumns(const double* logits, size_t ld, size_t m,
                             size_t n, double denom, double* out) {
  HostKernels().sigmoid_mean_columns(logits, ld, m, n, denom, out);
}

void ServeGatherTranspose(const double* slab, size_t k, const int32_t* ids,
                          size_t count, double* bt) {
  for (size_t i = 0; i < count; ++i) {
    const double* row = slab + static_cast<size_t>(ids[i]) * k;
    for (size_t d = 0; d < k; ++d) bt[d * count + i] = row[d];
  }
}

void AnnDotBatch(const double* query, const double* slab, size_t dim,
                 const int32_t* nodes, size_t count, double* out) {
  HostKernels().dot_batch(query, slab, dim, nodes, count, out);
}

}  // namespace subrec::la
