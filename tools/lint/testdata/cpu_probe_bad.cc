// A kernel unit that asks the CPU for itself instead of taking its table
// from la/cpu_dispatch.h: every probe call below must be flagged.

namespace subrec::la::internal {

bool WideKernelAvailable() {
  return __builtin_cpu_supports("avx2") &&
         __builtin_cpu_supports("fma");
}

bool OnZen() { return __builtin_cpu_is("znver3"); }

}  // namespace subrec::la::internal
