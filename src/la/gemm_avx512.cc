// Compiled with -mavx512f -mfma on x86-64 GNU/Clang builds (see
// src/CMakeLists.txt); anywhere else it degrades to the AVX2 kernel (which
// itself degrades to generic) and GemmAvx512Available() reports false so
// nothing dispatches here. Bit-for-bit identical to the AVX2 kernel: the
// wider vectors only regroup the lanes of a tile row, the tile/edge column
// split is shared (gemm_kernel.h), and every element still sees one fused
// multiply-add per k step in ascending-k order.

#include "la/gemm.h"

#include <cstddef>

#if defined(__AVX512F__) && defined(__FMA__)

#define SUBREC_GEMM_NS gemm_avx512
#include "la/gemm_kernel.h"  // NOLINT(build/include)
#undef SUBREC_GEMM_NS

namespace subrec::la::internal {

void GemmRowRangeAvx512(const double* a, size_t lda, const double* b,
                        size_t ldb, double* c, size_t ldc, size_t row0,
                        size_t row_end, size_t k, size_t n) {
  gemm_avx512::GemmRowBlock(a, lda, b, ldb, c, ldc, row0, row_end, k, n);
}

bool GemmAvx512Available() {
  return __builtin_cpu_supports("avx512f") && __builtin_cpu_supports("fma");
}

}  // namespace subrec::la::internal

#else  // !(__AVX512F__ && __FMA__)

namespace subrec::la::internal {

void GemmRowRangeAvx512(const double* a, size_t lda, const double* b,
                        size_t ldb, double* c, size_t ldc, size_t row0,
                        size_t row_end, size_t k, size_t n) {
  GemmRowRangeAvx2(a, lda, b, ldb, c, ldc, row0, row_end, k, n);
}

bool GemmAvx512Available() { return false; }

}  // namespace subrec::la::internal

#endif
