#include "nn/loss.h"

#include <utility>

#include "par/parallel.h"

namespace subrec::nn {

autodiff::VarId TripletHingeLoss(autodiff::Tape* tape, autodiff::VarId d_pos,
                                 autodiff::VarId d_neg, double margin) {
  autodiff::VarId eps = tape->Constant(la::Matrix(1, 1, margin));
  autodiff::VarId violation =
      tape->Add(tape->Sub(d_neg, d_pos), eps);
  return tape->Relu(violation);
}

L2Regularizer::L2Regularizer(std::vector<Parameter*> params, double lambda)
    : params_(lambda == 0.0 ? std::vector<Parameter*>() : std::move(params)),
      lambda_(lambda),
      terms_(params_.size(), 0.0) {}

void L2Regularizer::Refresh() {
  par::ParallelFor(params_.size(), 1, [&](size_t begin, size_t end) {
    for (size_t k = begin; k < end; ++k) {
      // Tape::SumSquares then Tape::Scale, step for step.
      const la::Matrix& x = params_[k]->value;
      double s = 0.0;
      for (size_t i = 0; i < x.size(); ++i) s += x[i] * x[i];
      terms_[k] = s * lambda_;
    }
  });
}

autodiff::VarId L2Regularizer::AddTo(autodiff::Tape* tape,
                                     TapeBinding* binding,
                                     autodiff::VarId loss) const {
  autodiff::VarId total = loss;
  for (size_t k = 0; k < params_.size(); ++k) {
    total = tape->AddL2Penalty(total, binding->Use(params_[k]), lambda_,
                               terms_[k]);
  }
  return total;
}

}  // namespace subrec::nn
