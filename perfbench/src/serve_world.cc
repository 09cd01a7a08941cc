#include "serve_world.h"

#include <algorithm>
#include <set>
#include <utility>

#include "ann/hnsw_index.h"
#include "common/check.h"
#include "common/rng.h"
#include "datagen/streaming.h"
#include "logic.h"
#include "par/parallel.h"
#include "serve/snapshot.h"
#include "workloads.h"

namespace perfbench {

using subrec::serve::SnapshotData;

namespace {
/// Serving users; each profile holds kProfileMin..kProfileMax papers of one
/// topic's pre-split history.
constexpr int kUsers = 20000;
constexpr int kProfileMin = 16;
constexpr int kProfileMax = 24;
}  // namespace

SnapshotData GenerateServeWorld(uint64_t seed) {
  const subrec::datagen::StreamingCorpusOptions corpus_options =
      subrec::datagen::AnnRecallPreset(subrec::datagen::AnnCorpusScale::kFull,
                                       seed);
  auto created =
      subrec::datagen::StreamingCorpusGenerator::Create(corpus_options);
  SUBREC_CHECK(created.ok()) << created.status().ToString();
  subrec::datagen::StreamingCorpusGenerator gen = std::move(created).value();

  const size_t n = gen.num_papers();
  const size_t dim = corpus_options.embedding_dim;
  SnapshotData data;
  data.model_name = "synthetic";
  data.dataset = "streaming_full";
  data.split_year = gen.split_year();
  data.interest.ResizeOverwrite(n, dim);
  data.influence.ResizeOverwrite(n, dim);
  data.years.resize(n);
  data.disciplines.resize(n);
  data.topics.resize(n);
  std::vector<std::vector<int32_t>> history(
      static_cast<size_t>(gen.num_topics()));
  std::vector<subrec::datagen::StreamedPaper> batch;
  while (gen.NextBatch(4096, &batch) > 0) {
    for (const auto& paper : batch) {
      const auto p = static_cast<size_t>(paper.id);
      std::copy(paper.interest.begin(), paper.interest.end(),
                data.interest.row_data(p));
      std::copy(paper.influence.begin(), paper.influence.end(),
                data.influence.row_data(p));
      data.years[p] = paper.year;
      data.disciplines[p] = paper.discipline;
      data.topics[p] = paper.topic;
      if (paper.year <= data.split_year)
        history[static_cast<size_t>(paper.topic)].push_back(paper.id);
    }
  }

  // Profiles: one topic per user, distinct history papers of that topic,
  // most recent (highest id) first like FreezeNPRec's profiles.
  subrec::Rng rng(seed ^ 0x9E3779B97F4A7C15ULL);
  data.profiles.resize(kUsers);
  const auto span = static_cast<uint64_t>(kProfileMax - kProfileMin + 1);
  for (auto& profile : data.profiles) {
    const auto& pool =
        history[rng.UniformInt(static_cast<uint64_t>(history.size()))];
    const size_t len = static_cast<size_t>(kProfileMin) +
                       static_cast<size_t>(rng.UniformInt(span));
    std::set<int32_t> chosen;
    while (chosen.size() < std::min(len, pool.size()))
      chosen.insert(pool[rng.UniformInt(pool.size())]);
    profile.assign(chosen.rbegin(), chosen.rend());
  }
  return data;
}

subrec::Status BuildAnnSection(SnapshotData* data) {
  const size_t dim = data->influence.cols();
  std::vector<int32_t> ids = NewPapers(*data, data->split_year);
  std::vector<double> vectors;
  vectors.reserve(ids.size() * dim);
  for (int32_t id : ids) {
    const double* row = data->influence.row_data(static_cast<size_t>(id));
    vectors.insert(vectors.end(), row, row + dim);
  }
  SUBREC_ASSIGN_OR_RETURN(
      std::unique_ptr<subrec::ann::HnswIndex> index,
      subrec::ann::HnswIndex::Build(std::move(ids), std::move(vectors), dim,
                                    subrec::ann::HnswOptions{}));
  data->ann_index = index->Serialize();
  return subrec::Status::Ok();
}

std::vector<int32_t> NewPapers(const SnapshotData& data, int32_t min_year) {
  std::vector<int32_t> out;
  for (size_t p = 0; p < data.years.size(); ++p)
    if (data.years[p] > min_year) out.push_back(static_cast<int32_t>(p));
  return out;
}

std::vector<int32_t> FilteredCandidates(const SnapshotData& data,
                                        const std::vector<int32_t>& new_papers,
                                        const std::vector<int32_t>& profile) {
  if (profile.empty()) return new_papers;
  std::set<int32_t> disciplines, topics;
  for (int32_t p : profile) {
    disciplines.insert(data.disciplines[static_cast<size_t>(p)]);
    if (data.topics[static_cast<size_t>(p)] >= 0)
      topics.insert(data.topics[static_cast<size_t>(p)]);
  }
  auto discipline_ok = [&](int32_t q) {
    return disciplines.count(data.disciplines[static_cast<size_t>(q)]) > 0;
  };
  std::vector<int32_t> out;
  if (!topics.empty()) {
    for (int32_t q : new_papers)
      if (topics.count(data.topics[static_cast<size_t>(q)]) > 0 &&
          discipline_ok(q))
        out.push_back(q);
  }
  if (out.empty())
    for (int32_t q : new_papers)
      if (discipline_ok(q)) out.push_back(q);
  if (out.empty()) out = new_papers;
  return out;
}


// --- The serving workloads ----------------------------------------------------

void RunServeWorkload(const RunConfig& config, Metrics* metrics,
                      Tally* tally) {
  Metrics& m = *metrics;
  subrec::par::ScopedNumThreads threads(kFitThreads);

  // Set-up, repeated: generate the corpus and profiles.
  SnapshotData data;
  std::vector<double> setups;
  Metrics setup_layers;
  for (int r = 0; r < config.setup_repeats; ++r) {
    data = SnapshotData();
    setup_layers.clear();
    Span span("setup");
    Stage stage(&setup_layers, "datagen", "datagen.generate_s");
    data = GenerateServeWorld(config.seed);
    setups.push_back(stage.Elapsed());
  }
  m.insert(setup_layers.begin(), setup_layers.end());
  m["setup_s"] = Median(setups);

  // Corpus to snapshot on disk: the ANN build and the snapshot write.
  const std::string snapshot_path = config.workdir + "/serve.snap";
  const int64_t fit_start = NowNs();
  {
    Span span("fit");
    {
      Stage stage(&m, "ann.build", "ann.build_s");
      const subrec::Status s = BuildAnnSection(&data);
      SUBREC_CHECK(s.ok()) << s.ToString();
    }
    Stage stage(&m, "serve.snapshot_write", "serve.snapshot_write_s");
    subrec::serve::SnapshotWriter writer(data);
    const subrec::Status s = writer.WriteFile(snapshot_path);
    SUBREC_CHECK(s.ok()) << s.ToString();
    m["serve.snapshot_mb"] =
        static_cast<double>(writer.bytes().size()) / (1024.0 * 1024.0);
  }
  m["fit_s"] = SecondsSince(fit_start);

  RunServePhases(snapshot_path, data, config.plan, config.seed, config.trace,
                 metrics, tally);
  m["ndcg20"] = m["serve_ndcg20"];
}

}  // namespace perfbench
