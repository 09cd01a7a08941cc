#include "nn/optimizer.h"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "common/check.h"
#include "la/check_finite.h"

namespace subrec::nn {
namespace {

/// The fused per-parameter pass: value[i] = update(i, grad[i], value[i])
/// for every entry, with the finiteness of each grad and each new value
/// folded into the same loop, then the grad zeroed. A failed check reports
/// through the same CheckFinite slow path (label, first bad entry and its
/// coordinates) as a separate scan would: the grad is still intact and the
/// value fully updated at that point.
template <typename UpdateFn>
void FusedPass(Parameter* p, const UpdateFn& update) {
  SUBREC_CHECK(p->grad.SameShape(p->value));
  double* __restrict value = p->value.data();
  double* __restrict grad = p->grad.data();
  const size_t n = p->value.size();
  uint64_t grad_carry = 0;
  uint64_t value_carry = 0;
  for (size_t i = 0; i < n; ++i) {
    const double g = grad[i];
    const double x = update(i, g, value[i]);
    value[i] = x;
    if constexpr (la::kNumericChecks) {
      grad_carry |= la::NonFiniteCarry(g);
      value_carry |= la::NonFiniteCarry(x);
    }
  }
  if constexpr (la::kNumericChecks) {
    if ((grad_carry >> 63) != 0)
      la::ReportNonFinite(p->grad, "optimizer step gradient");
    if ((value_carry >> 63) != 0)
      la::ReportNonFinite(p->value, "optimizer step parameter");
  }
  std::fill(grad, grad + n, 0.0);
}

}  // namespace

void Optimizer::Step(const std::vector<Parameter*>& params) {
  for (Parameter* p : params) Update(p);
}

void Sgd::Update(Parameter* p) {
  const double lr = lr_;
  const double wd = weight_decay_;
  FusedPass(p, [lr, wd](size_t, double grad, double value) {
    const double g = grad + wd * value;
    return value - lr * g;
  });
}

std::pair<double, double> Adam::BiasCorrections(long step) {
  while (static_cast<long>(corrections_.size()) < step) {
    const double t = static_cast<double>(corrections_.size() + 1);
    corrections_.emplace_back(1.0 - std::pow(beta1_, t),
                              1.0 - std::pow(beta2_, t));
  }
  return corrections_[static_cast<size_t>(step - 1)];
}

void Adam::Update(Parameter* p) {
  State& s = state_[*p];
  if (!s.allocated) {
    s.allocated = true;
    s.offset = m_.size();
    m_.resize(m_.size() + p->value.size(), 0.0);
    v_.resize(v_.size() + p->value.size(), 0.0);
  }
  const auto [bc1, bc2] = BiasCorrections(++s.step);
  double* __restrict m = m_.data() + s.offset;
  double* __restrict v = v_.data() + s.offset;
  const double lr = lr_, beta1 = beta1_, beta2 = beta2_, eps = eps_;
  const double wd = weight_decay_;
  FusedPass(p, [=](size_t i, double grad, double value) {
    const double g = grad + wd * value;
    m[i] = beta1 * m[i] + (1.0 - beta1) * g;
    v[i] = beta2 * v[i] + (1.0 - beta2) * g * g;
    const double mhat = m[i] / bc1;
    const double vhat = v[i] / bc2;
    return value - lr * mhat / (std::sqrt(vhat) + eps);
  });
}

double ClipGradNorm(const std::vector<Parameter*>& params, double max_norm) {
  SUBREC_CHECK_GT(max_norm, 0.0);
  // One running sum in parameter order: the reduction order is the
  // contract, so this stays a serial loop.
  double total = 0.0;
  for (const Parameter* p : params) {
    const double* g = p->grad.data();
    const size_t n = p->grad.size();
    for (size_t i = 0; i < n; ++i) total += g[i] * g[i];
  }
  const double norm = std::sqrt(total);
  if (norm > max_norm) {
    const double scale = max_norm / norm;
    for (Parameter* p : params) {
      double* g = p->grad.data();
      const size_t n = p->grad.size();
      for (size_t i = 0; i < n; ++i) g[i] *= scale;
    }
  }
  return norm;
}

}  // namespace subrec::nn
