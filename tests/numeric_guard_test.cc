// Verifies the SUBREC_NUMERIC_CHECKS guard layer: a NaN injected at a hot
// joint (optimizer step, autodiff backward) aborts with a labeled message
// instead of silently poisoning downstream metrics.
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "autodiff/tape.h"
#include "gtest/gtest.h"
#include "la/check_finite.h"
#include "la/matrix.h"
#include "nn/optimizer.h"
#include "nn/parameter.h"

namespace {

using subrec::la::Matrix;

TEST(CheckFiniteTest, AllFiniteDetectsNanAndInf) {
  Matrix m(2, 2, 1.0);
  EXPECT_TRUE(subrec::la::AllFinite(m));
  m(1, 0) = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(subrec::la::AllFinite(m));
  m(1, 0) = std::nan("");
  EXPECT_FALSE(subrec::la::AllFinite(m));
  EXPECT_TRUE(subrec::la::AllFinite(std::vector<double>{0.0, -1.5}));
  EXPECT_FALSE(
      subrec::la::AllFinite(std::vector<double>{0.0, std::nan("")}));
}

TEST(CheckFiniteDeathTest, ReportsLabelAndPosition) {
  Matrix m(2, 3);
  m(1, 2) = std::nan("");
  EXPECT_DEATH(subrec::la::CheckFinite(m, "unit test tensor"),
               "unit test tensor.*\\(1,2\\)");
  EXPECT_DEATH(subrec::la::CheckFinite(std::nan(""), "unit test scalar"),
               "unit test scalar");
}

TEST(CheckFiniteDeathTest, FastPathReportsFirstBadEntryOfEachKind) {
  // The vectorized scan only decides *whether* to report; the message must
  // still name the first non-finite entry, its coordinates and its value,
  // for NaN, +inf and -inf alike, wherever it sits in a long row.
  const double kBad[] = {std::nan(""), std::numeric_limits<double>::infinity(),
                         -std::numeric_limits<double>::infinity()};
  const char* const kPrinted[] = {"nan", "inf", "-inf"};
  for (int k = 0; k < 3; ++k) {
    Matrix m(3, 37, 0.25);
    m(2, 30) = -kBad[k];  // a later bad entry must not be the one reported
    m(1, 5) = kBad[k];
    const std::string want = std::string("tensor ") +
                             std::to_string(k) + ": entry \\(1,5\\) = " +
                             kPrinted[k] + " of 3x37";
    EXPECT_DEATH(subrec::la::CheckFinite(
                     m, ("tensor " + std::to_string(k)).c_str()),
                 want);
    std::vector<double> v(75, -3.0);
    v[74] = kBad[k];
    v[41] = kBad[k];
    EXPECT_DEATH(subrec::la::CheckFinite(v, "vector"),
                 std::string("vector: entry \\[41\\] = ") + kPrinted[k] +
                     " of 75");
  }
  // Largest finite values, denormals and signed zeros are finite.
  Matrix edge(1, 5);
  edge(0, 0) = std::numeric_limits<double>::max();
  edge(0, 1) = -std::numeric_limits<double>::max();
  edge(0, 2) = std::numeric_limits<double>::denorm_min();
  edge(0, 3) = -0.0;
  edge(0, 4) = std::numeric_limits<double>::min();
  EXPECT_TRUE(subrec::la::AllFinite(edge));
  subrec::la::CheckFinite(edge, "edge values");
}

#if defined(SUBREC_NUMERIC_CHECKS) && SUBREC_NUMERIC_CHECKS

TEST(NumericGuardDeathTest, OptimizerStepReportsFirstBadGradientEntry) {
  // Adam's fused pass checks the grad in the same loop as the update; the
  // report must still be the first bad grad entry, with coordinates.
  subrec::nn::ParameterStore store;
  subrec::nn::Parameter* p = store.Create("w", Matrix(2, 4, 0.5));
  p->grad(1, 1) = -std::numeric_limits<double>::infinity();
  p->grad(1, 3) = std::nan("");
  subrec::nn::Adam adam(0.1);
  EXPECT_DEATH(adam.Step(store.params()),
               "optimizer step gradient: entry \\(1,1\\) = -inf of 2x4");
}

TEST(NumericGuardDeathTest, OptimizerStepCatchesNanGradient) {
  subrec::nn::ParameterStore store;
  subrec::nn::Parameter* p = store.Create("w", Matrix(2, 2, 0.5));
  p->grad(0, 1) = std::nan("");
  subrec::nn::Sgd sgd(0.1);
  EXPECT_DEATH(sgd.Step(store.params()), "optimizer step gradient");
}

TEST(NumericGuardDeathTest, OptimizerStepCatchesInfParameter) {
  subrec::nn::ParameterStore store;
  subrec::nn::Parameter* p = store.Create("w", Matrix(1, 2, 1.0));
  // A huge gradient with a huge learning rate overflows the parameter to
  // inf inside Update(); the post-update guard must catch it.
  p->grad(0, 0) = std::numeric_limits<double>::max();
  subrec::nn::Sgd sgd(std::numeric_limits<double>::max());
  EXPECT_DEATH(sgd.Step(store.params()), "optimizer step parameter");
}

TEST(NumericGuardDeathTest, BackwardCatchesNanLoss) {
  subrec::autodiff::Tape tape;
  Matrix bad(1, 1);
  bad(0, 0) = std::nan("");
  const subrec::autodiff::VarId loss =
      tape.Input(bad, /*requires_grad=*/true);
  EXPECT_DEATH(tape.Backward(loss), "autodiff backward root loss");
}

#else

TEST(NumericGuardTest, GuardsCompiledOutLeaveNanUntouched) {
  subrec::nn::ParameterStore store;
  subrec::nn::Parameter* p = store.Create("w", Matrix(1, 1, 0.5));
  p->grad(0, 0) = std::nan("");
  subrec::nn::Sgd sgd(0.1);
  sgd.Step(store.params());
  EXPECT_TRUE(std::isnan(p->value(0, 0)));
}

#endif  // SUBREC_NUMERIC_CHECKS

}  // namespace
