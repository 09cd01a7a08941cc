// AVX-512 member of the exact kernel family (la/cpu_dispatch.h), compiled
// only on x86-64 GNU/Clang builds, with -mavx512f -ffp-contract=off and no
// -mfma (src/CMakeLists.txt). -mavx512f by itself enables FMA instructions
// and GCC contracts by default, so pinning contraction off is what keeps
// this member bit-identical to the generic one and to la::Dot.

#include "la/cpu_dispatch.h"

#define SUBREC_KERNEL_NS exact_avx512
#include "la/gemm_kernel.h"         // NOLINT(build/include)
#include "la/exact_kernel_impl.h"  // NOLINT(build/include)

namespace subrec::la::internal {

const ExactKernels kExactAvx512 = {exact_avx512::GemmRowBlock,
                                   exact_avx512::SigmoidMeanColumns,
                                   exact_avx512::DotBatch};

}  // namespace subrec::la::internal
