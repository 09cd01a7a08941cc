// The one CPU probe of the library (the one-cpu-probe lint rule keeps it
// the only one): it picks both kernel families' ISA tier once per process.
// src/CMakeLists.txt defines SUBREC_LA_X86_KERNELS for this file exactly
// when it compiles the AVX2 and AVX-512 kernel units, so the tier table
// below names only tables that exist.

#include "la/cpu_dispatch.h"

#include <cstddef>

namespace subrec::la::internal {
namespace {

struct Tier {
  const FusedKernels* fused;
  const ExactKernels* exact;
};

// Indexed by Isa.
constexpr Tier kTiers[] = {
    {&kFusedGeneric, &kExactGeneric},
#if defined(SUBREC_LA_X86_KERNELS)
    {&kFusedAvx2, &kExactAvx2},
    {&kFusedAvx512, &kExactAvx512},
#endif
};

Isa ProbeIsa() {
#if defined(SUBREC_LA_X86_KERNELS)
  // Both vector tiers need FMA: the fused family multiplies with it.
  if (__builtin_cpu_supports("fma")) {
    if (__builtin_cpu_supports("avx512f")) return Isa::kAvx512;
    if (__builtin_cpu_supports("avx2")) return Isa::kAvx2;
  }
#endif
  return Isa::kGeneric;
}

}  // namespace

Isa HostIsa() {
  static const Isa isa = ProbeIsa();
  return isa;
}

const FusedKernels* FusedKernelsFor(Isa isa) {
  return isa <= HostIsa() ? kTiers[static_cast<size_t>(isa)].fused : nullptr;
}

const ExactKernels* ExactKernelsFor(Isa isa) {
  return isa <= HostIsa() ? kTiers[static_cast<size_t>(isa)].exact : nullptr;
}

}  // namespace subrec::la::internal
