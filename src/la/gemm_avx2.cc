// AVX2 member of the fused kernel family (la/cpu_dispatch.h), compiled only
// on x86-64 GNU/Clang builds, with -mavx2 -mfma (src/CMakeLists.txt).

#include "la/cpu_dispatch.h"

#define SUBREC_KERNEL_NS fused_avx2
#include "la/gemm_kernel.h"  // NOLINT(build/include)

namespace subrec::la::internal {

const FusedKernels kFusedAvx2 = {fused_avx2::GemmRowBlock};

}  // namespace subrec::la::internal
