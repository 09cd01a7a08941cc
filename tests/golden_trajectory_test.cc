// Golden training trajectory: fits SEM and NPRec on a tiny preset and
// compares every epoch's loss (as IEEE-754 bit patterns) and a checksum of
// every trained parameter against values committed under tests/golden/.
// Any change to the training hot path must leave these bits unchanged at
// every SUBREC_NUM_THREADS; ctest runs this suite at 1, 2 and 4 threads.
//
// On a mismatch the test prints the complete trajectory it computed, in the
// golden file's format, so a deliberate numeric change can be re-blessed by
// replacing tests/golden/training_trajectory.txt with that output.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "datagen/corpus_generator.h"
#include "datagen/datasets.h"
#include "datagen/split.h"
#include "graph/academic_graph.h"
#include "nn/parameter.h"
#include "par/parallel.h"
#include "rec/nprec.h"
#include "rules/expert_rules.h"
#include "subspace/sem_model.h"
#include "text/hashed_ngram_encoder.h"

namespace subrec {
namespace {

std::string Hex(uint64_t bits) {
  char buf[19];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(bits));
  return buf;
}

uint64_t Bits(double x) {
  uint64_t b;
  std::memcpy(&b, &x, sizeof(b));
  return b;
}

/// FNV-1a over the bit patterns of `values`, folded into `h`.
uint64_t Fold(uint64_t h, const double* values, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    uint64_t b = Bits(values[i]);
    for (int byte = 0; byte < 8; ++byte) {
      h ^= b & 0xffu;
      h *= 0x100000001b3ULL;
      b >>= 8;
    }
  }
  return h;
}

constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ULL;

uint64_t StoreChecksum(const nn::ParameterStore& store) {
  uint64_t h = kFnvOffset;
  for (const nn::Parameter* p : store.params())
    h = Fold(h, p->value.data(), p->value.size());
  return h;
}

uint64_t VectorsChecksum(const std::vector<std::vector<double>>& rows) {
  uint64_t h = kFnvOffset;
  for (const auto& r : rows) h = Fold(h, r.data(), r.size());
  return h;
}

void AddLosses(const std::string& model, const std::vector<double>& losses,
               std::ostringstream* out) {
  for (size_t e = 0; e < losses.size(); ++e)
    *out << model << ".epoch_loss." << e << " " << Hex(Bits(losses[e]))
         << "\n";
}

/// Fits SEM, embeds the corpus with it, then fits two NPRec variants on
/// those embeddings, and renders the trajectory in the golden format.
std::string ComputeTrajectory() {
  auto generated = datagen::GenerateCorpus(
      datagen::ScopusLikeOptions(datagen::DatasetScale::kTiny, 4242));
  SUBREC_CHECK(generated.ok());
  const datagen::GeneratedDataset dataset = std::move(generated).value();
  const corpus::Corpus& corpus = dataset.corpus;

  text::HashedNgramEncoderOptions enc_options;
  enc_options.dim = 24;
  const text::HashedNgramEncoder encoder(enc_options);
  const rules::ExpertRuleEngine engine(&dataset.ccs, &encoder, nullptr);
  std::vector<rules::PaperContentFeatures> features;
  for (const auto& p : corpus.papers) {
    std::vector<int> roles;
    for (const auto& s : p.abstract_sentences) roles.push_back(s.role);
    features.push_back(engine.ComputeFeatures(p, roles));
  }
  const datagen::YearSplit split = datagen::SplitByYear(corpus, 2014);

  std::ostringstream out;

  subspace::SemModelOptions sem_options;
  sem_options.encoder.input_dim = 24;
  sem_options.encoder.hidden_dim = 24;
  sem_options.encoder.attention_dim = 6;
  sem_options.miner.num_candidates = 120;
  sem_options.calibration_pairs = 120;
  sem_options.trainer.epochs = 2;
  sem_options.trainer.batch_size = 5;  // not a divisor: partial batches
  subspace::SemModel sem(sem_options);
  auto sem_stats = sem.Fit(corpus, split.train, features, engine);
  SUBREC_CHECK(sem_stats.ok()) << sem_stats.status().ToString();
  AddLosses("sem", sem_stats.value().epoch_loss, &out);
  out << "sem.order_accuracy "
      << Hex(Bits(sem_stats.value().final_order_accuracy)) << "\n";
  out << "sem.params " << Hex(StoreChecksum(*sem.network()->store())) << "\n";

  rec::SubspaceEmbeddings subspace;
  std::vector<std::vector<double>> fused_text;
  for (const auto& p : corpus.papers) {
    auto subs = sem.Embed(features[static_cast<size_t>(p.id)]);
    std::vector<double> fused(subs[0].size(), 0.0);
    for (const auto& s : subs)
      for (size_t j = 0; j < s.size(); ++j) fused[j] += s[j] / 3.0;
    subspace.push_back(std::move(subs));
    fused_text.push_back(std::move(fused));
  }
  graph::GraphBuildOptions graph_options;
  graph_options.citation_year_cutoff = 2014;
  const graph::GraphIndex graph =
      graph::BuildAcademicGraph(corpus, graph_options);
  rec::RecContext ctx;
  ctx.corpus = &corpus;
  ctx.graph = &graph;
  ctx.split_year = 2014;
  ctx.train_papers = split.train;
  ctx.test_papers = split.test;
  ctx.paper_text = &fused_text;

  // "nprec" is the default model; "nprec_raw" adds the raw text channel
  // (the per-batch raw-unit cache) and the label-smoothness term.
  for (const bool variant : {false, true}) {
    const std::string key = variant ? "nprec_raw" : "nprec";
    rec::NPRecOptions options;
    options.embed_dim = 12;
    options.neighbor_samples = 4;
    options.epochs = 2;
    options.sampler.max_positives = 120;
    options.use_raw_text_channel = variant;
    options.label_smoothness = variant ? 0.01 : 0.0;
    rec::NPRec model(options, &subspace);
    const Status s = model.Fit(ctx);
    SUBREC_CHECK(s.ok()) << s.ToString();
    AddLosses(key, model.train_stats().epoch_loss, &out);
    out << key << ".params " << Hex(StoreChecksum(model.store())) << "\n";
    const rec::NPRecFrozenVectors frozen = model.ExportFrozenVectors();
    out << key << ".interest " << Hex(VectorsChecksum(frozen.interest))
        << "\n";
    out << key << ".influence " << Hex(VectorsChecksum(frozen.influence))
        << "\n";
  }
  return out.str();
}

std::string ReadGolden() {
  std::ifstream in(std::string(SUBREC_TEST_GOLDEN_DIR) +
                   "/training_trajectory.txt");
  std::ostringstream text;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    text << line << "\n";
  }
  return text.str();
}

TEST(GoldenTrajectory, SemAndNPRecFitsMatchCommittedBits) {
  const std::string golden = ReadGolden();
  const std::string actual = ComputeTrajectory();
  ASSERT_FALSE(golden.empty())
      << "missing tests/golden/training_trajectory.txt; computed:\n" << actual;
  EXPECT_EQ(golden, actual)
      << "training trajectory at " << par::NumThreads()
      << " thread(s) differs from the golden file; computed:\n"
      << actual;
}

}  // namespace
}  // namespace subrec
