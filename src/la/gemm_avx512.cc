// AVX-512 member of the fused kernel family (la/cpu_dispatch.h), compiled
// only on x86-64 GNU/Clang builds, with -mavx512f -mfma
// (src/CMakeLists.txt). Bit-for-bit identical to the AVX2 member: the wider
// vectors only regroup the lanes of a tile row, the tile/edge column split
// is shared (gemm_kernel.h), and every element still sees one fused
// multiply-add per k step in ascending-k order.

#include "la/cpu_dispatch.h"

#define SUBREC_KERNEL_NS fused_avx512
#include "la/gemm_kernel.h"  // NOLINT(build/include)

namespace subrec::la::internal {

const FusedKernels kFusedAvx512 = {fused_avx512::GemmRowBlock};

}  // namespace subrec::la::internal
