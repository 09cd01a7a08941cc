#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <vector>

#include "autodiff/tape.h"
#include "common/rng.h"
#include "la/ops.h"
#include "nn/dense.h"
#include "nn/init.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "nn/ordered_pull.h"
#include "nn/parameter.h"
#include "par/parallel.h"

namespace subrec::nn {
namespace {

TEST(ParameterStore, CreateAndZero) {
  ParameterStore store;
  Parameter* p = store.Create("w", la::Matrix(2, 3, 1.0));
  EXPECT_EQ(p->name, "w");
  EXPECT_EQ(p->grad.rows(), 2u);
  p->grad(0, 0) = 5.0;
  store.ZeroGrads();
  EXPECT_EQ(p->grad(0, 0), 0.0);
  EXPECT_EQ(store.TotalSize(), 6u);
}

TEST(TapeBinding, DedupesRepeatedUse) {
  ParameterStore store;
  Parameter* p = store.Create("w", la::Matrix(1, 2, 1.0));
  autodiff::Tape tape;
  TapeBinding binding(&tape);
  autodiff::VarId a = binding.Use(p);
  autodiff::VarId b = binding.Use(p);
  EXPECT_EQ(a, b);
}

TEST(TapeBinding, PullAccumulatesIntoParameter) {
  ParameterStore store;
  Parameter* p = store.Create("w", la::Matrix(1, 1, 3.0));
  autodiff::Tape tape;
  TapeBinding binding(&tape);
  autodiff::VarId x = binding.Use(p);
  autodiff::VarId loss = tape.SumSquares(x);  // d/dx = 2x = 6
  tape.Backward(loss);
  binding.PullGradients();
  EXPECT_NEAR(p->grad(0, 0), 6.0, 1e-12);
  // Second pass accumulates.
  autodiff::Tape tape2;
  TapeBinding binding2(&tape2);
  autodiff::VarId x2 = binding2.Use(p);
  tape2.Backward(tape2.SumSquares(x2));
  binding2.PullGradients();
  EXPECT_NEAR(p->grad(0, 0), 12.0, 1e-12);
}

TEST(Init, GlorotBounds) {
  Rng rng(1);
  la::Matrix w = GlorotUniform(100, 100, rng);
  const double bound = std::sqrt(6.0 / 200.0);
  for (size_t i = 0; i < w.size(); ++i) {
    EXPECT_LE(std::fabs(w[i]), bound);
  }
}

TEST(Dense, ForwardShapeAndActivation) {
  ParameterStore store;
  Rng rng(2);
  Dense layer(&store, "d", 4, 3, rng, Activation::kTanh);
  autodiff::Tape tape;
  TapeBinding binding(&tape);
  autodiff::VarId x = tape.Constant(la::Matrix::Random(5, 4, rng));
  autodiff::VarId y = layer.Forward(&tape, &binding, x);
  EXPECT_EQ(tape.value(y).rows(), 5u);
  EXPECT_EQ(tape.value(y).cols(), 3u);
  for (size_t i = 0; i < tape.value(y).size(); ++i)
    EXPECT_LE(std::fabs(tape.value(y)[i]), 1.0);
}

TEST(Sgd, ConvergesOnQuadratic) {
  // minimize (w - 3)^2.
  ParameterStore store;
  Parameter* w = store.Create("w", la::Matrix(1, 1, 0.0));
  Sgd opt(0.1);
  for (int i = 0; i < 200; ++i) {
    w->grad(0, 0) = 2.0 * (w->value(0, 0) - 3.0);
    opt.Step(store.params());
  }
  EXPECT_NEAR(w->value(0, 0), 3.0, 1e-6);
}

TEST(Adam, ConvergesOnQuadratic) {
  ParameterStore store;
  Parameter* w = store.Create("w", la::Matrix(1, 1, -5.0));
  Adam opt(0.1);
  for (int i = 0; i < 500; ++i) {
    w->grad(0, 0) = 2.0 * (w->value(0, 0) - 3.0);
    opt.Step(store.params());
  }
  EXPECT_NEAR(w->value(0, 0), 3.0, 1e-3);
}

TEST(Adam, LearnsLinearRegressionEndToEnd) {
  // y = x * W_true, learn W via tape + Adam.
  Rng rng(3);
  la::Matrix w_true = {{2.0}, {-1.0}};
  la::Matrix x = la::Matrix::Random(32, 2, rng);
  la::Matrix y = la::MatMul(x, w_true);

  ParameterStore store;
  Parameter* w = store.Create("w", la::Matrix(2, 1, 0.0));
  Adam opt(0.05);
  double final_loss = 1e9;
  for (int step = 0; step < 400; ++step) {
    autodiff::Tape tape;
    TapeBinding binding(&tape);
    autodiff::VarId pred = tape.MatMul(tape.Constant(x), binding.Use(w));
    autodiff::VarId err = tape.Sub(pred, tape.Constant(y));
    autodiff::VarId loss = tape.SumSquares(err);
    tape.Backward(loss);
    binding.PullGradients();
    opt.Step(store.params());
    final_loss = tape.value(loss)(0, 0);
  }
  EXPECT_LT(final_loss, 1e-4);
  EXPECT_NEAR(w->value(0, 0), 2.0, 0.05);
  EXPECT_NEAR(w->value(1, 0), -1.0, 0.05);
}

TEST(ClipGradNorm, RescalesWhenAboveThreshold) {
  ParameterStore store;
  Parameter* p = store.Create("p", la::Matrix(1, 2));
  p->grad(0, 0) = 3.0;
  p->grad(0, 1) = 4.0;  // norm 5
  const double before = ClipGradNorm(store.params(), 1.0);
  EXPECT_NEAR(before, 5.0, 1e-12);
  EXPECT_NEAR(std::hypot(p->grad(0, 0), p->grad(0, 1)), 1.0, 1e-12);
}

TEST(ClipGradNorm, NoopBelowThreshold) {
  ParameterStore store;
  Parameter* p = store.Create("p", la::Matrix(1, 1));
  p->grad(0, 0) = 0.5;
  ClipGradNorm(store.params(), 1.0);
  EXPECT_EQ(p->grad(0, 0), 0.5);
}

TEST(Loss, TripletHingeZeroWhenSatisfiedByMargin) {
  autodiff::Tape tape;
  autodiff::VarId d_pos = tape.Constant(la::Matrix(1, 1, 2.0));
  autodiff::VarId d_neg = tape.Constant(la::Matrix(1, 1, 0.5));
  autodiff::VarId loss = TripletHingeLoss(&tape, d_pos, d_neg, 0.5);
  EXPECT_EQ(tape.value(loss)(0, 0), 0.0);
}

TEST(Loss, TripletHingePenalizesViolation) {
  autodiff::Tape tape;
  autodiff::VarId d_pos = tape.Constant(la::Matrix(1, 1, 0.0));
  autodiff::VarId d_neg = tape.Constant(la::Matrix(1, 1, 1.0));
  autodiff::VarId loss = TripletHingeLoss(&tape, d_pos, d_neg, 0.5);
  EXPECT_NEAR(tape.value(loss)(0, 0), 1.5, 1e-12);
}

TEST(Loss, L2RegularizerAddsWeightNorm) {
  ParameterStore store;
  Parameter* w = store.Create("w", la::Matrix(1, 2, 2.0));  // ||w||^2 = 8
  autodiff::Tape tape;
  TapeBinding binding(&tape);
  autodiff::VarId base = tape.Constant(la::Matrix(1, 1, 1.0));
  L2Regularizer l2({w}, 0.5);
  l2.Refresh();
  autodiff::VarId total = l2.AddTo(&tape, &binding, base);
  EXPECT_NEAR(tape.value(total)(0, 0), 1.0 + 0.5 * 8.0, 1e-12);
}

/// The pre-flat Adam, kept verbatim as the oracle: per-parameter state in a
/// pointer-keyed map, bias corrections from std::pow on every update.
class ReferenceAdam {
 public:
  ReferenceAdam(double lr, double wd) : lr_(lr), wd_(wd) {}

  void Step(const std::vector<Parameter*>& params) {
    for (Parameter* p : params) {
      State& s = state_[p];
      if (s.step == 0) {
        s.m = la::Matrix(p->value.rows(), p->value.cols());
        s.v = la::Matrix(p->value.rows(), p->value.cols());
      }
      ++s.step;
      const double bc1 = 1.0 - std::pow(beta1_, static_cast<double>(s.step));
      const double bc2 = 1.0 - std::pow(beta2_, static_cast<double>(s.step));
      for (size_t i = 0; i < p->value.size(); ++i) {
        const double g = p->grad[i] + wd_ * p->value[i];
        s.m[i] = beta1_ * s.m[i] + (1.0 - beta1_) * g;
        s.v[i] = beta2_ * s.v[i] + (1.0 - beta2_) * g * g;
        const double mhat = s.m[i] / bc1;
        const double vhat = s.v[i] / bc2;
        p->value[i] -= lr_ * mhat / (std::sqrt(vhat) + eps_);
      }
      p->grad.Fill(0.0);
    }
  }

 private:
  struct State {
    la::Matrix m, v;
    long step = 0;
  };
  double lr_, wd_;
  double beta1_ = 0.9, beta2_ = 0.999, eps_ = 1e-8;
  std::map<Parameter*, State> state_;
};

TEST(Adam, MatchesReferenceFormulaBitForBit) {
  // Two identical stores, one per optimizer. Parameter 1's gradient stays
  // zero throughout; parameter 2 is stepped only every third step, so the
  // parameters' step counts (and bias corrections) differ.
  ParameterStore flat_store, ref_store;
  Rng init(5);
  const la::Matrix shapes[] = {la::Matrix::Random(3, 7, init),
                               la::Matrix::Random(1, 24, init),
                               la::Matrix::Random(5, 5, init)};
  for (const la::Matrix& m : shapes) {
    flat_store.Create("p", m);
    ref_store.Create("p", m);
  }
  const std::vector<Parameter*> flat = flat_store.params();
  const std::vector<Parameter*> ref = ref_store.params();
  Adam adam(0.01, 0.9, 0.999, 1e-8, /*weight_decay=*/1e-3);
  ReferenceAdam reference(0.01, 1e-3);
  Rng grads(9);
  for (int step = 0; step < 300; ++step) {
    for (size_t k : {size_t{0}, size_t{2}}) {
      for (size_t i = 0; i < flat[k]->grad.size(); ++i) {
        const double g = grads.Gaussian() * (step % 7 == 0 ? 1e3 : 1e-2);
        flat[k]->grad[i] = g;
        ref[k]->grad[i] = g;
      }
    }
    std::vector<Parameter*> flat_sub = {flat[0], flat[1]};
    std::vector<Parameter*> ref_sub = {ref[0], ref[1]};
    if (step % 3 == 0) {
      flat_sub.push_back(flat[2]);
      ref_sub.push_back(ref[2]);
    }
    adam.Step(flat_sub);
    reference.Step(ref_sub);
    for (size_t k = 0; k < flat.size(); ++k) {
      for (size_t i = 0; i < flat[k]->value.size(); ++i) {
        ASSERT_EQ(flat[k]->value[i], ref[k]->value[i])
            << "param " << k << " entry " << i << " step " << step;
        ASSERT_EQ(flat[k]->grad[i], ref[k]->grad[i]);
      }
    }
  }
}

TEST(TapeBinding, OneLeafPerParameterPerTapeAcrossStores) {
  ParameterStore a, b;
  Parameter* a0 = a.Create("a0", la::Matrix(1, 2, 1.0));
  Parameter* a1 = a.Create("a1", la::Matrix(1, 2, 2.0));
  Parameter* b0 = b.Create("b0", la::Matrix(1, 2, 3.0));
  EXPECT_NE(a0->id, b0->id);
  EXPECT_NE(a1->id, b0->id);

  autodiff::Tape tape;
  TapeBinding binding(&tape);
  const autodiff::VarId vb0 = binding.Use(b0);
  const autodiff::VarId va0 = binding.Use(a0);
  const autodiff::VarId va1 = binding.Use(a1);
  EXPECT_EQ(binding.Use(a0), va0);
  EXPECT_EQ(binding.Use(b0), vb0);
  EXPECT_EQ(binding.Use(a1), va1);
  EXPECT_NE(va0, vb0);
  EXPECT_NE(va0, va1);
  EXPECT_EQ(tape.size(), 3u);  // one leaf each, however often used

  // A reset binding forgets every leaf: the next tape gets fresh ones.
  autodiff::Tape tape2;
  binding.Reset(&tape2);
  const autodiff::VarId va1_again = binding.Use(a1);
  EXPECT_EQ(va1_again, 0u);
  EXPECT_EQ(binding.Use(b0), 1u);
  EXPECT_EQ(binding.Use(a1), va1_again);
  EXPECT_EQ(tape2.size(), 2u);
}

TEST(OrderedPull, PullsEveryItemOnceInItemOrder) {
  par::ScopedNumThreads threads(4);
  OrderedPull puller;
  for (size_t n : {size_t{1}, size_t{7}, size_t{64}}) {
    std::vector<size_t> order;  // written only by the puller role
    const auto pull = [&](size_t i) { order.push_back(i); };
    puller.Begin(n);
    par::ParallelFor(n, 1, [&](size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) puller.Done(i, pull);
    });
    puller.Finish(pull);
    ASSERT_EQ(order.size(), n);
    for (size_t i = 0; i < n; ++i) EXPECT_EQ(order[i], i);
  }
}

TEST(Loss, L2PenaltyMatchesPerTapeSumBitForBit) {
  // L2Regularizer's once-per-step terms against the per-tape chain they
  // replace: same loss bits, same leaf gradient bits.
  ParameterStore store;
  Rng rng(3);
  Parameter* w = store.Create("w", la::Matrix::Random(4, 6, rng));
  Parameter* b = store.Create("b", la::Matrix::Random(1, 6, rng));
  const la::Matrix x = la::Matrix::Random(2, 4, rng);
  const double lambda = 1e-3;
  const auto model = [&](autodiff::Tape* tape, TapeBinding* binding) {
    autodiff::VarId in = tape->Constant(x);
    return tape->Sum(tape->Tanh(tape->AddRowBroadcast(
        tape->MatMul(in, binding->Use(w)), binding->Use(b))));
  };

  autodiff::Tape chain_tape;
  TapeBinding chain_binding(&chain_tape);
  autodiff::VarId chain = model(&chain_tape, &chain_binding);
  for (Parameter* p : {w, b}) {
    chain = chain_tape.Add(
        chain, chain_tape.Scale(chain_tape.SumSquares(chain_binding.Use(p)),
                                lambda));
  }
  chain_tape.Backward(chain);

  autodiff::Tape fast_tape;
  TapeBinding fast_binding(&fast_tape);
  L2Regularizer l2({w, b}, lambda);
  l2.Refresh();
  autodiff::VarId fast = l2.AddTo(&fast_tape, &fast_binding,
                                  model(&fast_tape, &fast_binding));
  fast_tape.Backward(fast);

  EXPECT_EQ(chain_tape.value(chain)(0, 0), fast_tape.value(fast)(0, 0));
  for (Parameter* p : {w, b}) {
    const la::Matrix& gc = chain_tape.grad(chain_binding.Use(p));
    const la::Matrix& gf = fast_tape.grad(fast_binding.Use(p));
    ASSERT_TRUE(gc.SameShape(gf));
    for (size_t i = 0; i < gc.size(); ++i) EXPECT_EQ(gc[i], gf[i]) << i;
  }
}

}  // namespace
}  // namespace subrec::nn
