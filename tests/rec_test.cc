#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>

#include "common/check.h"
#include "common/rng.h"
#include "datagen/corpus_generator.h"
#include "datagen/datasets.h"
#include "datagen/split.h"
#include "graph/academic_graph.h"
#include "la/ops.h"
#include "rec/baselines_quality.h"
#include "rec/candidate_sets.h"
#include "rec/embedding_baselines.h"
#include "rec/jtie.h"
#include "rec/kgcn.h"
#include "rec/mlp_ncf.h"
#include "rec/nbcf.h"
#include "rec/nprec.h"
#include "rec/ripplenet.h"
#include "rec/sampler.h"
#include "rec/svd.h"
#include "rec/wnmf.h"
#include "text/hashed_ngram_encoder.h"

namespace subrec::rec {
namespace {

/// Shared tiny evaluation world: corpus, split, graph, naive subspace
/// embeddings (frozen-encoder means — good enough to exercise the code
/// paths without training SEM here).
class RecWorld : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto result = datagen::GenerateCorpus(
        datagen::ScopusLikeOptions(datagen::DatasetScale::kTiny, 4242));
    SUBREC_CHECK(result.ok());
    dataset_ = new datagen::GeneratedDataset(std::move(result).value());
    const auto split = datagen::SplitByYear(dataset_->corpus, 2014);

    graph::GraphBuildOptions graph_options;
    graph_options.citation_year_cutoff = 2014;
    index_ = new graph::GraphIndex(
        graph::BuildAcademicGraph(dataset_->corpus, graph_options));

    text::HashedNgramEncoderOptions enc_options;
    enc_options.dim = 24;
    text::HashedNgramEncoder encoder(enc_options);
    subspace_ = new SubspaceEmbeddings();
    text_ = new std::vector<std::vector<double>>();
    for (const auto& p : dataset_->corpus.papers) {
      std::vector<std::vector<double>> subs(3,
                                            std::vector<double>(24, 0.0));
      std::vector<int> counts(3, 0);
      for (const auto& s : p.abstract_sentences) {
        const auto v = encoder.Encode(s.text);
        for (size_t j = 0; j < v.size(); ++j)
          subs[static_cast<size_t>(s.role)][j] += v[j];
        ++counts[static_cast<size_t>(s.role)];
      }
      std::vector<double> fused(24, 0.0);
      for (int k = 0; k < 3; ++k) {
        if (counts[static_cast<size_t>(k)] > 0) {
          for (double& x : subs[static_cast<size_t>(k)])
            x /= counts[static_cast<size_t>(k)];
        }
        for (size_t j = 0; j < 24; ++j)
          fused[j] += subs[static_cast<size_t>(k)][j] / 3.0;
      }
      subspace_->push_back(std::move(subs));
      text_->push_back(std::move(fused));
    }

    ctx_ = new RecContext();
    ctx_->corpus = &dataset_->corpus;
    ctx_->graph = index_;
    ctx_->split_year = 2014;
    ctx_->train_papers = split.train;
    ctx_->test_papers = split.test;
    ctx_->paper_text = text_;

    users_ = new std::vector<corpus::AuthorId>(
        datagen::SelectUsers(dataset_->corpus, 2014, 2));
    SUBREC_CHECK(!users_->empty());
    Rng rng(1);
    sets_ = new std::vector<CandidateSet>();
    for (corpus::AuthorId u : *users_)
      sets_->push_back(BuildCandidateSet(*ctx_, u, 20, rng));
  }

  static datagen::GeneratedDataset* dataset_;
  static graph::GraphIndex* index_;
  static SubspaceEmbeddings* subspace_;
  static std::vector<std::vector<double>>* text_;
  static RecContext* ctx_;
  static std::vector<corpus::AuthorId>* users_;
  static std::vector<CandidateSet>* sets_;
};

datagen::GeneratedDataset* RecWorld::dataset_ = nullptr;
graph::GraphIndex* RecWorld::index_ = nullptr;
SubspaceEmbeddings* RecWorld::subspace_ = nullptr;
std::vector<std::vector<double>>* RecWorld::text_ = nullptr;
RecContext* RecWorld::ctx_ = nullptr;
std::vector<corpus::AuthorId>* RecWorld::users_ = nullptr;
std::vector<CandidateSet>* RecWorld::sets_ = nullptr;

TEST_F(RecWorld, UserHelpers) {
  const corpus::AuthorId u = (*users_)[0];
  const auto interactions = UserInteractions(*ctx_, u);
  EXPECT_FALSE(interactions.empty());
  for (corpus::PaperId pid : interactions)
    EXPECT_LE(dataset_->corpus.paper(pid).year, 2014);
  const auto profile5 = UserProfile(*ctx_, u, 5);
  EXPECT_LE(profile5.size(), 5u);
  const auto all = UserProfile(*ctx_, u);
  EXPECT_GE(all.size(), profile5.size());
  // Most recent first.
  for (size_t i = 1; i < all.size(); ++i)
    EXPECT_GE(dataset_->corpus.paper(all[i - 1]).year,
              dataset_->corpus.paper(all[i]).year);
}

TEST_F(RecWorld, CandidateSetsContainRelevantAndNew) {
  for (const CandidateSet& set : *sets_) {
    ASSERT_FALSE(set.papers.empty());
    EXPECT_LE(set.papers.size(), 20u);
    EXPECT_TRUE(std::any_of(set.relevant.begin(), set.relevant.end(),
                            [](bool b) { return b; }));
    for (corpus::PaperId pid : set.papers)
      EXPECT_GT(dataset_->corpus.paper(pid).year, 2014);
  }
}

TEST_F(RecWorld, SamplerRespectsRatioAndLabels) {
  SamplerOptions options;
  options.negatives_per_positive = 3;
  options.max_positives = 50;
  options.use_defuzzing = false;
  DefuzzSampler sampler(options);
  const auto pairs = sampler.BuildPairs(*ctx_, nullptr);
  ASSERT_FALSE(pairs.empty());
  int pos = 0, neg = 0;
  for (const TrainingPair& p : pairs) {
    if (p.label > 0.5) {
      ++pos;
      // Positive means an actual citation.
      const auto& refs = dataset_->corpus.paper(p.citing).references;
      EXPECT_TRUE(std::find(refs.begin(), refs.end(), p.cited) != refs.end());
    } else {
      ++neg;
      const auto& refs = dataset_->corpus.paper(p.citing).references;
      EXPECT_TRUE(std::find(refs.begin(), refs.end(), p.cited) == refs.end());
    }
  }
  EXPECT_EQ(pos, 50);
  EXPECT_NEAR(static_cast<double>(neg) / pos, 3.0, 0.2);
}

TEST_F(RecWorld, DefuzzedNegativesAreFarInAllSubspaces) {
  SamplerOptions options;
  options.negatives_per_positive = 2;
  options.max_positives = 30;
  options.use_defuzzing = true;
  DefuzzSampler defuzz(options);
  options.use_defuzzing = false;
  DefuzzSampler plain(options);
  const auto defuzzed = defuzz.BuildPairs(*ctx_, subspace_);
  const auto baseline = plain.BuildPairs(*ctx_, subspace_);
  // Mean subspace distance of defuzzed negatives exceeds the unfiltered
  // baseline's.
  auto mean_negative_distance = [&](const std::vector<TrainingPair>& pairs) {
    double total = 0.0;
    int count = 0;
    for (const auto& p : pairs) {
      if (p.label > 0.5) continue;
      for (int k = 0; k < 3; ++k) {
        total += la::EuclideanDistance(
            (*subspace_)[static_cast<size_t>(p.citing)][static_cast<size_t>(k)],
            (*subspace_)[static_cast<size_t>(p.cited)][static_cast<size_t>(k)]);
      }
      ++count;
    }
    return total / std::max(count, 1);
  };
  EXPECT_GT(mean_negative_distance(defuzzed),
            mean_negative_distance(baseline));
}

NPRecOptions FastNPRecOptions() {
  NPRecOptions options;
  options.embed_dim = 12;
  options.neighbor_samples = 4;
  options.epochs = 1;
  options.sampler.max_positives = 150;
  options.sampler.negatives_per_positive = 3;
  return options;
}

TEST_F(RecWorld, NPRecFitsAndScores) {
  NPRec model(FastNPRecOptions(), subspace_);
  ASSERT_TRUE(model.Fit(*ctx_).ok());
  const auto& set = (*sets_)[0];
  UserQuery query{set.user, UserProfile(*ctx_, set.user)};
  const auto scores = model.Score(*ctx_, query, set.papers);
  EXPECT_EQ(scores.size(), set.papers.size());
  // Scores are probabilities.
  for (double s : scores) {
    EXPECT_GE(s, 0.0);
    EXPECT_LE(s, 1.0);
  }
  // Embeddings exposed for Fig. 5 analyses.
  EXPECT_FALSE(model.PaperInterestVector(0).empty());
  EXPECT_FALSE(model.PaperInfluenceVector(0).empty());
  EXPECT_FALSE(model.PaperTextVector(0).empty());
}

TEST_F(RecWorld, NPRecAblationVariantsFit) {
  {
    NPRecOptions o = FastNPRecOptions();
    o.use_graph = false;  // +SC
    NPRec sc(o, subspace_);
    EXPECT_TRUE(sc.Fit(*ctx_).ok());
  }
  {
    NPRecOptions o = FastNPRecOptions();
    o.use_text = false;  // +SN
    o.sampler.use_defuzzing = false;
    NPRec sn(o, nullptr);
    EXPECT_TRUE(sn.Fit(*ctx_).ok());
  }
  {
    NPRecOptions o = FastNPRecOptions();
    o.sampler.use_defuzzing = false;  // +CN
    NPRec cn(o, subspace_);
    EXPECT_TRUE(cn.Fit(*ctx_).ok());
  }
}

TEST_F(RecWorld, NPRecRequiresDependencies) {
  NPRecOptions o = FastNPRecOptions();
#if SUBREC_DCHECK_IS_ON
  // Dev builds fail loudly at construction: text wanted, no subspace.
  EXPECT_DEATH(NPRec(o, nullptr), "subspace");
#else
  NPRec model(o, nullptr);  // text wanted but no subspace embeddings
  EXPECT_FALSE(model.Fit(*ctx_).ok());
#endif
}

#if SUBREC_DCHECK_IS_ON
/// The non-owning RecContext pointers are guarded: dangling or mismatched
/// context members die at the recommender boundary instead of corrupting
/// training silently.
TEST_F(RecWorld, InvalidContextDiesInDevBuilds) {
  RecContext bad = *ctx_;
  bad.corpus = nullptr;
  EXPECT_DEATH(DCheckValidContext(bad), "corpus");

  RecContext wrong_text = *ctx_;
  std::vector<std::vector<double>> short_text(1);
  wrong_text.paper_text = &short_text;
  EXPECT_DEATH(DCheckValidContext(wrong_text), "paper_text");

  RecContext leaky = *ctx_;
  std::vector<corpus::PaperId> future_train = leaky.train_papers;
  future_train.push_back(leaky.test_papers.front());  // post-split leak
  leaky.train_papers = future_train;
  EXPECT_DEATH(DCheckValidContext(leaky), "split");
}
#endif

TEST_F(RecWorld, KgcnVariantsConfigure) {
  const NPRecOptions base = FastNPRecOptions();
  const NPRecOptions kgcn = KgcnOptions(base);
  EXPECT_FALSE(kgcn.use_text);
  EXPECT_TRUE(kgcn.symmetric_neighborhoods);
  EXPECT_FALSE(kgcn.sampler.use_defuzzing);
  const NPRecOptions ls = KgcnLsOptions(base);
  EXPECT_GT(ls.label_smoothness, 0.0);
  NPRec model(kgcn, nullptr);
  EXPECT_TRUE(model.Fit(*ctx_).ok());
}

/// Every baseline must fit and produce a full, finite score vector.
TEST_F(RecWorld, AllBaselinesFitAndScore) {
  std::vector<std::unique_ptr<Recommender>> models;
  models.push_back(std::make_unique<SvdRecommender>());
  models.push_back(std::make_unique<WnmfRecommender>());
  models.push_back(std::make_unique<NbcfRecommender>());
  models.push_back(std::make_unique<MlpRecommender>([] {
    MlpNcfOptions o;
    o.epochs = 1;
    o.max_positives = 300;
    return o;
  }()));
  models.push_back(std::make_unique<JtieRecommender>());
  models.push_back(std::make_unique<RippleNetRecommender>());
  for (auto& model : models) {
    ASSERT_TRUE(model->Fit(*ctx_).ok()) << model->name();
    const auto& set = (*sets_)[0];
    UserQuery query{set.user, UserProfile(*ctx_, set.user)};
    const auto scores = model->Score(*ctx_, query, set.papers);
    ASSERT_EQ(scores.size(), set.papers.size()) << model->name();
    for (double s : scores)
      EXPECT_TRUE(std::isfinite(s)) << model->name();
  }
}

TEST_F(RecWorld, EvaluateRecommenderAggregates) {
  NbcfRecommender model;
  ASSERT_TRUE(model.Fit(*ctx_).ok());
  const RecEvalResult result =
      EvaluateRecommender(*ctx_, model, *sets_, 20);
  EXPECT_GT(result.users_evaluated, 0);
  EXPECT_GE(result.ndcg, 0.0);
  EXPECT_LE(result.ndcg, 1.0);
  EXPECT_GE(result.mrr, 0.0);
  EXPECT_LE(result.map, 1.0);
  // Content-aware CF on this corpus must beat a random ranking by a wide
  // margin (random nDCG@20 with ~2 relevant of 20 is far below 0.5).
  EXPECT_GT(result.ndcg, 0.3);
}

TEST_F(RecWorld, QualityBaselinesProduceScores) {
  std::vector<corpus::PaperId> papers;
  for (int i = 0; i < 100; ++i) papers.push_back(i);
  const auto clt = CltScores(dataset_->corpus, papers);
  const auto csj = CsjScores(dataset_->corpus, papers);
  const auto hp = HpScores(dataset_->corpus, papers);
  ASSERT_EQ(clt.size(), papers.size());
  ASSERT_EQ(csj.size(), papers.size());
  ASSERT_EQ(hp.size(), papers.size());
  // HP must correlate positively with final citations (early citations
  // predict later ones under preferential attachment).
  std::vector<double> cites;
  for (corpus::PaperId pid : papers)
    cites.push_back(static_cast<double>(dataset_->corpus.paper(pid).citation_count));
  EXPECT_GT(eval::SpearmanCorrelation(hp, cites), 0.2);
}

TEST_F(RecWorld, EmbeddingBaselinesShapes) {
  std::vector<corpus::PaperId> papers;
  for (int i = 0; i < 60; ++i) papers.push_back(i);
  auto shpe = ShpeEmbeddings(dataset_->corpus, papers, 1);
  ASSERT_TRUE(shpe.ok());
  EXPECT_EQ(shpe.value().rows(), papers.size());
  auto d2v = Doc2VecEmbeddings(dataset_->corpus, papers, 2);
  ASSERT_TRUE(d2v.ok());
  EXPECT_EQ(d2v.value().rows(), papers.size());
  text::HashedNgramEncoder encoder;
  auto bert = BertAvgEmbeddings(dataset_->corpus, papers, encoder);
  EXPECT_EQ(bert.rows(), papers.size());
  EXPECT_EQ(bert.cols(), encoder.dim());
}

}  // namespace
}  // namespace subrec::rec
