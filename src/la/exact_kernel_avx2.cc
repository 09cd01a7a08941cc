// AVX2 member of the exact kernel family (la/cpu_dispatch.h), compiled only
// on x86-64 GNU/Clang builds, with -mavx2 -ffp-contract=off and no -mfma
// (src/CMakeLists.txt). Every multiply and add rounds separately in
// ascending order, so this member matches the generic one and la::Dot bit
// for bit; the wider vectors only regroup lanes.

#include "la/cpu_dispatch.h"

#define SUBREC_KERNEL_NS exact_avx2
#include "la/gemm_kernel.h"         // NOLINT(build/include)
#include "la/exact_kernel_impl.h"  // NOLINT(build/include)

namespace subrec::la::internal {

const ExactKernels kExactAvx2 = {exact_avx2::GemmRowBlock,
                                 exact_avx2::SigmoidMeanColumns,
                                 exact_avx2::DotBatch};

}  // namespace subrec::la::internal
