#ifndef SUBREC_NN_OPTIMIZER_H_
#define SUBREC_NN_OPTIMIZER_H_

#include <cstddef>
#include <utility>
#include <vector>

#include "nn/parameter.h"

namespace subrec::nn {

/// Applies accumulated gradients to parameters and zeroes them.
class Optimizer {
 public:
  virtual ~Optimizer() = default;

  /// One update step over all `params`; clears their grads afterwards.
  /// Each parameter takes one fused pass that finite-checks its grad,
  /// applies the update, finite-checks the new value and zeroes the grad.
  void Step(const std::vector<Parameter*>& params);

 protected:
  /// The fused pass over one parameter.
  virtual void Update(Parameter* p) = 0;
};

/// Plain SGD with optional L2 weight decay.
class Sgd final : public Optimizer {
 public:
  explicit Sgd(double lr, double weight_decay = 0.0)
      : lr_(lr), weight_decay_(weight_decay) {}

  void set_lr(double lr) { lr_ = lr; }
  double lr() const { return lr_; }

 protected:
  void Update(Parameter* p) override;

 private:
  double lr_;
  double weight_decay_;
};

/// Adam (Kingma & Ba) with bias correction and optional L2 weight decay.
/// Every parameter keeps its own step count, so parameters stepped on
/// different schedules get their own bias corrections.
class Adam final : public Optimizer {
 public:
  explicit Adam(double lr, double beta1 = 0.9, double beta2 = 0.999,
                double eps = 1e-8, double weight_decay = 0.0)
      : lr_(lr),
        beta1_(beta1),
        beta2_(beta2),
        eps_(eps),
        weight_decay_(weight_decay) {}

  void set_lr(double lr) { lr_ = lr; }

 protected:
  void Update(Parameter* p) override;

 private:
  struct State {
    bool allocated = false;
    size_t offset = 0;  // of this parameter's moments in m_ / v_
    long step = 0;
  };

  /// (1 - beta1^t, 1 - beta2^t) for step t >= 1, computed once per t.
  std::pair<double, double> BiasCorrections(long step);

  double lr_;
  double beta1_;
  double beta2_;
  double eps_;
  double weight_decay_;
  ParameterTable<State> state_;
  // First and second moments of every parameter, back to back.
  std::vector<double> m_;
  std::vector<double> v_;
  std::vector<std::pair<double, double>> corrections_;  // index t - 1
};

/// Rescales all grads so their global L2 norm is at most `max_norm`.
/// Returns the pre-clipping norm.
double ClipGradNorm(const std::vector<Parameter*>& params, double max_norm);

}  // namespace subrec::nn

#endif  // SUBREC_NN_OPTIMIZER_H_
