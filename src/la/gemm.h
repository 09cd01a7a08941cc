#ifndef SUBREC_LA_GEMM_H_
#define SUBREC_LA_GEMM_H_

#include <cstddef>

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
///
/// The three symbols are the same kernel compiled for different ISAs: the
/// generic one with the project-wide baseline flags, the Avx2 one with
/// -mavx2 -mfma, the Avx512 one with -mavx512f -mfma (each falls back to
/// the next-narrower kernel when the toolchain or target lacks its ISA).
/// The Avx2 and Avx512 kernels produce identical bits. The generic kernel
/// does not fuse multiply and add, so it differs from both in the last
/// bits. Pick via GemmAvx512Available()/GemmAvx2Available() once per
/// process.
void GemmRowRangeGeneric(const double* a, size_t lda, const double* b,
                         size_t ldb, double* c, size_t ldc, size_t row0,
                         size_t row_end, size_t k, size_t n);
void GemmRowRangeAvx2(const double* a, size_t lda, const double* b,
                      size_t ldb, double* c, size_t ldc, size_t row0,
                      size_t row_end, size_t k, size_t n);
void GemmRowRangeAvx512(const double* a, size_t lda, const double* b,
                        size_t ldb, double* c, size_t ldc, size_t row0,
                        size_t row_end, size_t k, size_t n);

/// True when the AVX2+FMA translation unit was compiled with those ISAs
/// AND the running CPU reports them.
bool GemmAvx2Available();

/// Same contract for the AVX-512F translation unit.
bool GemmAvx512Available();

}  // namespace subrec::la::internal

#endif  // SUBREC_LA_GEMM_H_
