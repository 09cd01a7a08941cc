#ifndef SUBREC_NN_LOSS_H_
#define SUBREC_NN_LOSS_H_

#include <vector>

#include "autodiff/tape.h"
#include "nn/parameter.h"

namespace subrec::nn {

/// Triplet hinge contrast loss of Eq. (14): max(0, D_pos_violation + eps)
/// built as Relu(d_neg - d_pos + eps) where d_pos should come out LARGER
/// than d_neg under the model's distance. `d_pos` and `d_neg` are 1x1 nodes.
/// (The paper's Eq. 14 writes the hinge with the arguments transposed; this
/// is the standard orientation that actually decreases on satisfied
/// triplets.)
autodiff::VarId TripletHingeLoss(autodiff::Tape* tape, autodiff::VarId d_pos,
                                 autodiff::VarId d_neg, double margin);

/// lambda * sum_p ||p||^2 over a fixed parameter list, added to per-item
/// losses through the bound leaves so it also produces gradients. The terms
/// depend only on parameter values, which stay frozen between optimizer
/// steps, so Refresh() sums them once per step and AddTo() puts them on
/// each item's tape with Tape::AddL2Penalty — bit-identical to summing
/// ||p||^2 on every tape.
class L2Regularizer {
 public:
  L2Regularizer(std::vector<Parameter*> params, double lambda);

  /// Re-evaluates every term from the current parameter values. Call it
  /// whenever the values may have changed (after each optimizer step)
  /// and before the next AddTo(). Parallel over parameters; each term is
  /// one in-order sum, so the result does not depend on the thread count.
  void Refresh();

  /// loss (1x1) plus lambda * ||p||^2 for each parameter in list order.
  autodiff::VarId AddTo(autodiff::Tape* tape, TapeBinding* binding,
                        autodiff::VarId loss) const;

 private:
  std::vector<Parameter*> params_;
  double lambda_;
  std::vector<double> terms_;
};

}  // namespace subrec::nn

#endif  // SUBREC_NN_LOSS_H_
