// A kernel consumer that takes the ISA from the one probe. Naming
// __builtin_cpu_supports in a comment or a string is not a probe.

#include "la/cpu_dispatch.h"

namespace subrec::la::internal {

const char* const kProbeHome = "__builtin_cpu_supports is in cpu_dispatch.cc";

bool WideKernelsRun() { return HostIsa() != Isa::kGeneric; }

}  // namespace subrec::la::internal
