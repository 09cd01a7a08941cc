#ifndef SUBREC_LA_CHECK_FINITE_H_
#define SUBREC_LA_CHECK_FINITE_H_

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "la/matrix.h"

namespace subrec::la {

/// Bit 63 of the result is set exactly when `x` is NaN or +-inf: those are
/// the values whose exponent bits are all ones, and adding one exponent ULP
/// to the masked exponent carries into bit 63 only then. OR-ing the results
/// over a range and testing bit 63 once is a branch-free finiteness scan
/// made of integer AND/ADD/OR alone, which the compiler vectorizes without
/// touching any floating-point rounding.
inline uint64_t NonFiniteCarry(double x) {
  constexpr uint64_t kExponent = 0x7ff0000000000000ULL;
  constexpr uint64_t kExponentUlp = 0x0010000000000000ULL;
  uint64_t bits;
  std::memcpy(&bits, &x, sizeof(bits));
  return (bits & kExponent) + kExponentUlp;
}

/// True when no entry of x[0, n) is NaN or +-inf.
inline bool AllFiniteBits(const double* x, size_t n) {
  uint64_t carry = 0;
  for (size_t i = 0; i < n; ++i) carry |= NonFiniteCarry(x[i]);
  return (carry >> 63) == 0;
}

/// True when every entry of `m` is finite (no NaN / +-inf).
inline bool AllFinite(const Matrix& m) {
  return AllFiniteBits(m.data(), m.size());
}
inline bool AllFinite(const std::vector<double>& v) {
  return AllFiniteBits(v.data(), v.size());
}

/// Slow paths of CheckFinite: scan for the first non-finite entry and abort
/// with `label`, its position and its value. Only reached once the fast
/// scan has seen a bad entry.
void ReportNonFinite(const Matrix& m, const char* label);
void ReportNonFinite(const std::vector<double>& v, const char* label);
void ReportNonFinite(double x, const char* label);

/// Aborts with `label` and the position/value of the first non-finite entry.
/// The label should name the tensor at its producer ("Adam step value",
/// "GMM means after M-step") so a poisoned pipeline is caught at the joint
/// that produced the bad value, not thousands of ops downstream.
inline void CheckFinite(const Matrix& m, const char* label) {
  if (!AllFinite(m)) ReportNonFinite(m, label);
}
inline void CheckFinite(const std::vector<double>& v, const char* label) {
  if (!AllFinite(v)) ReportNonFinite(v, label);
}
inline void CheckFinite(double x, const char* label) {
  if (!std::isfinite(x)) ReportNonFinite(x, label);
}

/// Whether SUBREC_CHECK_FINITE (below) is compiled in, for fused loops that
/// fold the finiteness scan into their own pass.
#if defined(SUBREC_NUMERIC_CHECKS) && SUBREC_NUMERIC_CHECKS
inline constexpr bool kNumericChecks = true;
#else
inline constexpr bool kNumericChecks = false;
#endif

}  // namespace subrec::la

/// Numeric-sanity guards at hot pipeline joints (optimizer steps, autodiff
/// backward, GMM E/M, SEM loss, NPRec propagation). Compiled in when the
/// CMake option SUBREC_NUMERIC_CHECKS is ON (the default for dev and
/// sanitizer builds); the `release` preset compiles them out so production
/// binaries pay nothing.
#if defined(SUBREC_NUMERIC_CHECKS) && SUBREC_NUMERIC_CHECKS
#define SUBREC_CHECK_FINITE(value, label) \
  ::subrec::la::CheckFinite((value), (label))
#else
#define SUBREC_CHECK_FINITE(value, label) \
  static_cast<void>(sizeof((value), (label), 0))
#endif

#endif  // SUBREC_LA_CHECK_FINITE_H_
