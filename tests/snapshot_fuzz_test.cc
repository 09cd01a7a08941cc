// Deterministic mutation fuzz of the serving wire formats: the snapshot
// container and the HNSW section it carries. Every mutant must either fail
// with a Status or load into a state that serves every user in both
// retrieval modes. Candidate lists are retrieved on a user's first request,
// so a hole in load validation would surface as a crash inside a request;
// this suite serves every user of every mutant that loads to catch that.
// Run it under the asan-ubsan preset to turn silent out-of-bounds reads
// into failures.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "ann/hnsw_index.h"
#include "common/check.h"
#include "serve/candidate_index.h"
#include "serve/frozen_scorer.h"
#include "serve/service.h"
#include "serve/snapshot.h"

namespace subrec::serve {
namespace {

constexpr size_t kPapers = 48;
constexpr size_t kDim = 4;
constexpr int32_t kSplitYear = 2014;

/// splitmix64: a fixed, platform-independent stream, so every run of the
/// suite sees the same mutants.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n); n must be positive.
  size_t Below(size_t n) { return static_cast<size_t>(Next() % n); }

 private:
  uint64_t state_;
};

/// A small servable snapshot: papers over five years (half of them past
/// the split), three disciplines, four topics plus untopiced papers, eight
/// users including one with an empty profile, and an HNSW section over the
/// new papers' influence rows.
SnapshotData SeedData() {
  SnapshotData d;
  d.model_name = "NPRec";
  d.dataset = "fuzz";
  d.split_year = kSplitYear;
  d.interest.ResizeOverwrite(kPapers, kDim);
  d.influence.ResizeOverwrite(kPapers, kDim);
  Rng rng(0xF0221);
  for (size_t p = 0; p < kPapers; ++p) {
    for (size_t j = 0; j < kDim; ++j) {
      d.interest(p, j) = static_cast<double>(rng.Below(2001)) / 1000.0 - 1.0;
      d.influence(p, j) = static_cast<double>(rng.Below(2001)) / 1000.0 - 1.0;
    }
    d.years.push_back(2012 + static_cast<int32_t>(p % 5));
    d.disciplines.push_back(static_cast<int32_t>(p % 3));
    d.topics.push_back(p % 7 == 6 ? -1 : static_cast<int32_t>(p % 4));
  }
  d.profiles = {{0, 1, 5}, {2}, {}, {3, 6, 10, 11}, {7, 12},
                {15, 20, 25}, {8}, {4, 9, 13, 14}};
  std::vector<int32_t> ids;
  std::vector<double> rows;
  for (size_t p = 0; p < kPapers; ++p) {
    if (d.years[p] <= kSplitYear) continue;
    ids.push_back(static_cast<int32_t>(p));
    const double* row = d.influence.row_data(p);
    rows.insert(rows.end(), row, row + kDim);
  }
  ann::HnswOptions options;
  options.M = 4;
  options.ef_construction = 16;
  auto built = ann::HnswIndex::Build(std::move(ids), std::move(rows), kDim,
                                     options);
  SUBREC_CHECK(built.ok()) << built.status().ToString();
  d.ann_index = built.value()->Serialize();
  return d;
}

/// 1–3 edits of `bytes`: multi-byte XOR flips, truncations, and splices
/// (a copy of one range written over, or inserted before, another spot).
std::string Mutate(std::string bytes, Rng* rng) {
  const size_t edits = 1 + rng->Below(3);
  for (size_t e = 0; e < edits && !bytes.empty(); ++e) {
    switch (rng->Below(4)) {
      case 0:
      case 1: {  // Flip 1–8 consecutive bytes.
        const size_t at = rng->Below(bytes.size());
        const size_t len = std::min(bytes.size() - at, 1 + rng->Below(8));
        for (size_t i = 0; i < len; ++i)
          bytes[at + i] = static_cast<char>(
              static_cast<uint8_t>(bytes[at + i]) ^ (1 + rng->Below(255)));
        break;
      }
      case 2:  // Truncate.
        bytes.resize(rng->Below(bytes.size()));
        break;
      default: {  // Splice a range over or in front of another spot.
        const size_t from = rng->Below(bytes.size());
        const size_t len = std::min(bytes.size() - from, 1 + rng->Below(64));
        const std::string piece = bytes.substr(from, len);
        const size_t to = rng->Below(bytes.size());
        if (rng->Below(2) == 0) {
          bytes.replace(to, std::min(len, bytes.size() - to), piece);
        } else {
          bytes.insert(to, piece);
        }
        break;
      }
    }
  }
  return bytes;
}

/// Rewrites the header's payload size and the footer checksum to match
/// whatever lies between them, so the mutant gets past the container
/// checks into the section decoders.
void Restamp(std::string* bytes) {
  constexpr size_t kHeader = 24;  // magic, version, section count, size
  constexpr size_t kFooter = 4;
  if (bytes->size() < kHeader + kFooter) return;
  const uint64_t payload = bytes->size() - kHeader - kFooter;
  for (int i = 0; i < 8; ++i)
    (*bytes)[16 + static_cast<size_t>(i)] =
        static_cast<char>((payload >> (8 * i)) & 0xFF);
  const uint32_t crc =
      Crc32(std::string_view(*bytes).substr(kHeader, payload));
  for (int i = 0; i < 4; ++i)
    (*bytes)[kHeader + payload + static_cast<size_t>(i)] =
        static_cast<char>((crc >> (8 * i)) & 0xFF);
}

/// Loads `data` in `mode` and, when the load succeeds, serves every user
/// (and the ids just outside the profile table). Returns whether it loaded.
bool LoadAndServe(SnapshotData data, RetrievalMode mode) {
  CandidateIndexOptions options;
  options.retrieval = mode;
  options.ann_candidates = 8;
  options.ann_ef = 16;
  const auto loaded = ServingState::FromSnapshot(std::move(data), options);
  if (!loaded.ok()) return false;
  const ServingState& state = *loaded.value();
  const auto users = static_cast<int32_t>(state.profiles.size());
  std::vector<ScoredPaper> out;
  for (int32_t u = -1; u <= users; ++u) {
    const std::vector<int32_t>& candidates = state.index.CandidatesFor(u);
    const CandidateSource source = state.index.SourceFor(u);
    EXPECT_LT(static_cast<int>(source), kNumCandidateSources);
    for (int32_t c : candidates) {
      EXPECT_GE(c, 0);
      EXPECT_LT(static_cast<size_t>(c), state.scorer.num_papers());
    }
    if (u < 0 || u == users) continue;
    const std::vector<int32_t>& profile =
        state.profiles[static_cast<size_t>(u)];
    for (const ScorerMode scorer : {ScorerMode::kGemm, ScorerMode::kPairwise})
      state.scorer.TopNInto(profile, candidates, 5, scorer, nullptr, nullptr,
                            &out);
    EXPECT_LE(out.size(), 5u);
  }
  return true;
}

bool LoadAndServeBothModes(const SnapshotData& data) {
  const bool filtered = LoadAndServe(data, RetrievalMode::kFiltered);
  const bool ann = LoadAndServe(data, RetrievalMode::kAnnEmbedding);
  return filtered || ann;
}

TEST(SnapshotFuzz, SeedSnapshotServesInBothModes) {
  // The unmutated seed must load in both modes, or the fuzz below would
  // only ever exercise the error paths.
  const std::string bytes = SnapshotWriter(SeedData()).bytes();
  auto parsed = SnapshotReader::Parse(bytes);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_TRUE(LoadAndServe(parsed.value(), RetrievalMode::kFiltered));
  EXPECT_TRUE(LoadAndServe(parsed.value(), RetrievalMode::kAnnEmbedding));
}

TEST(SnapshotFuzz, MutatedSnapshotsFailWithAStatusOrServe) {
  const std::string seed = SnapshotWriter(SeedData()).bytes();
  Rng rng(0x5A9500);
  constexpr int kMutants = 8000;
  int parsed_count = 0, served = 0;
  for (int i = 0; i < kMutants; ++i) {
    std::string mutant = Mutate(seed, &rng);
    // Half the mutants keep a stale checksum and exercise the container
    // checks; the other half are re-stamped to reach the decoders.
    if (i % 2 == 1) Restamp(&mutant);
    auto parsed = SnapshotReader::Parse(mutant);
    if (!parsed.ok()) continue;
    ++parsed_count;
    if (LoadAndServeBothModes(parsed.value())) ++served;
  }
  // Enough mutants must get through to make the serving half meaningful.
  EXPECT_GT(parsed_count, kMutants / 20);
  EXPECT_GT(served, kMutants / 20);
}

TEST(SnapshotFuzz, MutatedHnswSectionsFailWithAStatusOrServe) {
  const SnapshotData seed = SeedData();
  Rng rng(0xA11CE);
  constexpr int kMutants = 8000;
  int decoded = 0, served = 0;
  std::vector<ann::Neighbor> hits;
  for (int i = 0; i < kMutants; ++i) {
    const std::string mutant = Mutate(seed.ann_index, &rng);
    // The decoder alone, then searched directly when it accepts.
    auto index = ann::HnswIndex::Deserialize(mutant);
    if (index.ok()) {
      ++decoded;
      for (size_t p = 0; p < 4; ++p) {
        const double* row = seed.interest.row_data(p);
        const std::vector<double> query(row, row + kDim);
        const Status status = index.value()->Search(query, 8, 16, &hits);
        if (index.value()->dim() == kDim) {
          EXPECT_TRUE(status.ok()) << status.ToString();
        }
      }
    }
    // The same bytes framed in a valid snapshot, through load and serve.
    SnapshotData data = seed;
    data.ann_index = mutant;
    auto parsed = SnapshotReader::Parse(SnapshotWriter(data).bytes());
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    if (LoadAndServeBothModes(std::move(parsed).value())) ++served;
  }
  EXPECT_GT(decoded, kMutants / 50);
  EXPECT_GT(served, kMutants / 50);
}

}  // namespace
}  // namespace subrec::serve
