// Generic member of the fused kernel family (la/cpu_dispatch.h), built with
// the project-wide flags.

#include "la/cpu_dispatch.h"

#define SUBREC_KERNEL_NS fused_generic
#include "la/gemm_kernel.h"  // NOLINT(build/include)

namespace subrec::la::internal {

const FusedKernels kFusedGeneric = {fused_generic::GemmRowBlock};

}  // namespace subrec::la::internal
