#include <gtest/gtest.h>

#include <cmath>

#include "datagen/corpus_generator.h"
#include "datagen/datasets.h"
#include "datagen/split.h"
#include "la/ops.h"
#include "par/parallel.h"
#include "rules/expert_rules.h"
#include "subspace/sem_model.h"
#include "subspace/subspace_encoder.h"
#include "subspace/trainer.h"
#include "subspace/triplet_miner.h"
#include "subspace/twin_network.h"
#include "text/hashed_ngram_encoder.h"

namespace subrec::subspace {
namespace {

SubspaceEncoderOptions TinyEncoderOptions() {
  SubspaceEncoderOptions options;
  options.input_dim = 24;
  options.hidden_dim = 8;
  options.residual = false;
  options.attention_dim = 6;
  options.mlp_layers = 2;
  return options;
}

std::vector<std::vector<double>> RandomSentences(int n, size_t dim, Rng& rng) {
  std::vector<std::vector<double>> out;
  for (int i = 0; i < n; ++i) {
    std::vector<double> v(dim);
    for (double& x : v) x = rng.Gaussian(0.0, 1.0);
    la::NormalizeL2(v);
    out.push_back(std::move(v));
  }
  return out;
}

TEST(SubspaceEncoder, OutputShapes) {
  nn::ParameterStore store;
  Rng rng(1);
  SubspaceEncoderNet net(&store, TinyEncoderOptions(), rng);
  EXPECT_EQ(net.output_dim(), 16u);

  autodiff::Tape tape;
  nn::TapeBinding binding(&tape);
  Rng data_rng(2);
  auto sentences = RandomSentences(5, 24, data_rng);
  std::vector<int> roles = {0, 0, 1, 2, 2};
  const auto out = net.Forward(&tape, &binding, sentences, roles);
  ASSERT_EQ(out.size(), 3u);
  for (autodiff::VarId id : out) {
    EXPECT_EQ(tape.value(id).rows(), 1u);
    EXPECT_EQ(tape.value(id).cols(), 16u);
  }
}

TEST(SubspaceEncoder, HandlesEmptySubspace) {
  nn::ParameterStore store;
  Rng rng(3);
  SubspaceEncoderNet net(&store, TinyEncoderOptions(), rng);
  autodiff::Tape tape;
  nn::TapeBinding binding(&tape);
  Rng data_rng(4);
  auto sentences = RandomSentences(2, 24, data_rng);
  std::vector<int> roles = {0, 0};  // no method/result sentences
  const auto out = net.Forward(&tape, &binding, sentences, roles);
  ASSERT_EQ(out.size(), 3u);
  for (autodiff::VarId id : out) {
    for (size_t i = 0; i < tape.value(id).size(); ++i)
      EXPECT_TRUE(std::isfinite(tape.value(id)[i]));
  }
}

TEST(SubspaceEncoder, SubspaceChangeOnlyMovesThatEmbeddingMost) {
  // Changing only the method sentences must change the method subspace
  // embedding's pooled half while background/result pooled halves, which
  // only see their own sentences, stay identical.
  nn::ParameterStore store;
  Rng rng(5);
  SubspaceEncoderNet net(&store, TinyEncoderOptions(), rng);

  Rng data_rng(6);
  auto sentences = RandomSentences(6, 24, data_rng);
  std::vector<int> roles = {0, 0, 1, 1, 2, 2};
  auto altered = sentences;
  altered[2] = RandomSentences(1, 24, data_rng)[0];
  altered[3] = RandomSentences(1, 24, data_rng)[0];

  autodiff::Tape t1, t2;
  nn::TapeBinding b1(&t1), b2(&t2);
  const auto e1 = net.Forward(&t1, &b1, sentences, roles);
  const auto e2 = net.Forward(&t2, &b2, altered, roles);

  const size_t half = 8;  // hidden_dim: first half is the pooled c_hat
  auto pooled_delta = [&](int k) {
    double s = 0.0;
    for (size_t j = 0; j < half; ++j) {
      const double d = t1.value(e1[static_cast<size_t>(k)])(0, j) -
                       t2.value(e2[static_cast<size_t>(k)])(0, j);
      s += d * d;
    }
    return std::sqrt(s);
  };
  EXPECT_NEAR(pooled_delta(0), 0.0, 1e-12);
  EXPECT_NEAR(pooled_delta(2), 0.0, 1e-12);
  EXPECT_GT(pooled_delta(1), 1e-4);
}

TEST(TwinNetworkTest, DistanceIsNegativeInnerProduct) {
  TwinNetwork net(TinyEncoderOptions(), 7);
  rules::PaperContentFeatures fa, fb;
  Rng rng(8);
  fa.sentence_vectors = RandomSentences(3, 24, rng);
  fa.roles = {0, 1, 2};
  fb.sentence_vectors = RandomSentences(3, 24, rng);
  fb.roles = {0, 1, 2};
  const auto ea = net.Embed(fa);
  const auto eb = net.Embed(fb);
  for (int k = 0; k < 3; ++k) {
    const double expected = -la::Dot(ea[static_cast<size_t>(k)],
                                     eb[static_cast<size_t>(k)]);
    EXPECT_NEAR(net.Distance(fa, fb, k), expected, 1e-9);
  }
}

/// Shared tiny fixture: generated corpus, features, rule engine.
class SemPipelineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto result = datagen::GenerateCorpus(
        datagen::ScopusLikeOptions(datagen::DatasetScale::kTiny, 99));
    SUBREC_CHECK(result.ok());
    dataset_ = new datagen::GeneratedDataset(std::move(result).value());
    encoder_ = new text::HashedNgramEncoder([] {
      text::HashedNgramEncoderOptions o;
      o.dim = 24;
      return o;
    }());
    engine_ = new rules::ExpertRuleEngine(&dataset_->ccs, encoder_, nullptr);
    features_ = new std::vector<rules::PaperContentFeatures>();
    for (const auto& p : dataset_->corpus.papers) {
      std::vector<int> roles;
      for (const auto& s : p.abstract_sentences) roles.push_back(s.role);
      features_->push_back(engine_->ComputeFeatures(p, roles));
    }
  }

  static datagen::GeneratedDataset* dataset_;
  static text::HashedNgramEncoder* encoder_;
  static rules::ExpertRuleEngine* engine_;
  static std::vector<rules::PaperContentFeatures>* features_;
};

datagen::GeneratedDataset* SemPipelineTest::dataset_ = nullptr;
text::HashedNgramEncoder* SemPipelineTest::encoder_ = nullptr;
rules::ExpertRuleEngine* SemPipelineTest::engine_ = nullptr;
std::vector<rules::PaperContentFeatures>* SemPipelineTest::features_ = nullptr;

TEST_F(SemPipelineTest, MinerProducesOrderedTriplets) {
  std::vector<corpus::PaperId> ids;
  for (int i = 0; i < 120; ++i) ids.push_back(i);
  rules::RuleFusion fusion(3);
  ASSERT_TRUE(CalibrateFusion(dataset_->corpus, ids, *features_, *engine_,
                              200, 1, &fusion)
                  .ok());
  TripletMinerOptions options;
  options.num_candidates = 300;
  const auto triplets = MineTriplets(dataset_->corpus, ids, *features_,
                                     *engine_, fusion, options);
  ASSERT_GT(triplets.size(), 50u);
  for (const Triplet& t : triplets) {
    EXPECT_NE(t.anchor, t.positive);
    EXPECT_NE(t.anchor, t.negative);
    EXPECT_GE(t.gap, options.min_gap);
    EXPECT_GE(t.subspace, 0);
    EXPECT_LT(t.subspace, 3);
    // The miner's invariant: the positive pair is the more different one
    // under the fused rules.
    const auto sp = engine_->AllScores(
        dataset_->corpus.paper(t.anchor),
        (*features_)[static_cast<size_t>(t.anchor)],
        dataset_->corpus.paper(t.positive),
        (*features_)[static_cast<size_t>(t.positive)]);
    const auto sn = engine_->AllScores(
        dataset_->corpus.paper(t.anchor),
        (*features_)[static_cast<size_t>(t.anchor)],
        dataset_->corpus.paper(t.negative),
        (*features_)[static_cast<size_t>(t.negative)]);
    EXPECT_GT(fusion.Fuse(sp, t.subspace), fusion.Fuse(sn, t.subspace));
  }
}

TEST_F(SemPipelineTest, TwinNetworkLearnsRuleOrdering) {
  std::vector<corpus::PaperId> ids;
  for (int i = 0; i < 100; ++i) ids.push_back(i);

  SemModelOptions options;
  options.encoder = TinyEncoderOptions();
  options.miner.num_candidates = 250;
  options.trainer.epochs = 2;
  options.calibration_pairs = 150;
  SemModel model(options);
  auto stats = model.Fit(dataset_->corpus, ids, *features_, *engine_);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_TRUE(model.fitted());
  // The twin network should order most training triplets correctly.
  EXPECT_GT(stats.value().final_order_accuracy, 0.75);
  // Loss decreases over epochs.
  ASSERT_EQ(stats.value().epoch_loss.size(), 2u);
  EXPECT_LT(stats.value().epoch_loss.back(),
            stats.value().epoch_loss.front() + 1e-9);
}

TEST_F(SemPipelineTest, MemoizedOrderAccuracyEqualsPerCallDistance) {
  // Triplets that reuse papers (the memo's case) plus every subspace; the
  // network is briefly trained so distances are not all at init values.
  const int n = 40;
  std::vector<Triplet> triplets;
  for (int i = 0; i < 300; ++i)
    triplets.push_back(Triplet{(i * 7) % n, (i * 11 + 1) % n,
                               (i * 13 + 2) % n, i % 3, 1.0});
  TwinNetwork net(TinyEncoderOptions(), 5);
  SemTrainerOptions options;
  options.epochs = 1;
  auto stats = TrainTwinNetwork(*features_, triplets, options, &net);
  ASSERT_TRUE(stats.ok());

  const auto& f = *features_;
  int correct = 0;
  for (const Triplet& t : triplets) {
    const auto& anchor = f[static_cast<size_t>(t.anchor)];
    const double dp =
        net.Distance(anchor, f[static_cast<size_t>(t.positive)], t.subspace);
    const double dn =
        net.Distance(anchor, f[static_cast<size_t>(t.negative)], t.subspace);
    if (dp > dn) ++correct;
  }
  const double per_call =
      static_cast<double>(correct) / static_cast<double>(triplets.size());
  for (size_t threads : {size_t{1}, size_t{4}}) {
    par::ScopedNumThreads scoped(threads);
    EXPECT_EQ(OrderAccuracy(*features_, triplets, net), per_call) << threads;
  }
  EXPECT_EQ(stats.value().final_order_accuracy, per_call);
  EXPECT_GT(per_call, 0.0);
  EXPECT_LT(per_call, 1.0);
}

TEST_F(SemPipelineTest, EmbeddingMatrixShape) {
  SemModelOptions options;
  options.encoder = TinyEncoderOptions();
  SemModel model(options);
  std::vector<corpus::PaperId> ids = {0, 1, 2, 3};
  const la::Matrix m = model.SubspaceEmbeddingMatrix(*features_, ids, 1);
  EXPECT_EQ(m.rows(), 4u);
  EXPECT_EQ(m.cols(), model.network()->embedding_dim());
}

TEST(Trainer, RejectsEmptyTriplets) {
  TwinNetwork net(TinyEncoderOptions(), 11);
  auto result = TrainTwinNetwork({}, {}, {}, &net);
  EXPECT_FALSE(result.ok());
}

TEST(Trainer, RejectsOutOfRangeIds) {
  TwinNetwork net(TinyEncoderOptions(), 12);
  std::vector<rules::PaperContentFeatures> features(2);
  Triplet t{0, 1, 5, 0, 1.0};  // id 5 out of range
  auto result = TrainTwinNetwork(features, {t}, {}, &net);
  EXPECT_FALSE(result.ok());
}

}  // namespace
}  // namespace subrec::subspace
