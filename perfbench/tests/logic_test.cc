// Tests for the benchmark's own logic: the percentile rule, the seeded Zipf
// stream, the exact-LRU replay, ladder knee and backlog detection, and the
// reference scorer against FrozenScorer on a tiny snapshot.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "logic.h"
#include "serve/frozen_scorer.h"
#include "serve/snapshot.h"
#include "serve_world.h"

namespace perfbench {
namespace {

TEST(Percentile, NearestRank) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  EXPECT_EQ(NearestRank(v, 0.5), 50);
  EXPECT_EQ(NearestRank(v, 0.99), 99);
  EXPECT_EQ(NearestRank(v, 1.0), 100);
  EXPECT_EQ(NearestRank(v, 0.001), 1);
  EXPECT_EQ(NearestRank({}, 0.5), 0);
}

TEST(Percentile, HighestWithTenSamplesBeyond) {
  EXPECT_EQ(SamplesBeyond(1000, 0.99), 10);
  EXPECT_EQ(SamplesBeyond(999, 0.99), 9);
  EXPECT_EQ(HighestReportablePercentile(10000), 0.999);
  EXPECT_EQ(HighestReportablePercentile(9999), 0.99);
  EXPECT_EQ(HighestReportablePercentile(1000), 0.99);
  EXPECT_EQ(HighestReportablePercentile(999), 0.95);
  EXPECT_EQ(HighestReportablePercentile(100), 0.9);
  EXPECT_EQ(HighestReportablePercentile(99), 0.5);
  EXPECT_EQ(HighestReportablePercentile(20), 0.5);
  EXPECT_EQ(HighestReportablePercentile(19), 0.0);
}

TEST(Percentile, Median) {
  EXPECT_EQ(Median({3, 1, 2}), 2);
  EXPECT_EQ(Median({4, 1, 3, 2}), 2.5);
  EXPECT_EQ(Median({}), 0);
}

TEST(Percentile, MedianOverWindows) {
  // Three 1-s windows of 2000 samples at 1 ms; the middle one has a stall
  // that puts 5% of its requests at 50 ms.
  std::vector<int64_t> due;
  std::vector<double> ms;
  for (int i = 0; i < 6000; ++i) {
    due.push_back(int64_t{i} * 500'000);
    ms.push_back(i >= 2000 && i < 2100 ? 50.0 : 1.0 + (i % 100) * 0.01);
  }
  EXPECT_DOUBLE_EQ(MedianWindowPercentile(due, ms, 0, 1'000'000'000, 0.99),
                   1.98);
  // One window only, with too few samples beyond its p99: no value.
  EXPECT_EQ(MedianWindowPercentile({0, 1, 2}, {1, 2, 3}, 0, 10, 0.99), 0);
  std::vector<double> sorted = ms;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(NearestRank(sorted, 0.99), 50.0);
}

std::vector<int32_t> UserStream(size_t n, double s, uint64_t seed,
                                size_t count) {
  ZipfSampler sampler(n, s, seed);
  std::vector<int32_t> out(count);
  for (int32_t& u : out) u = sampler.Next();
  return out;
}

TEST(Zipf, SameSeedSameStream) {
  EXPECT_EQ(UserStream(20000, 1.0, 7, 5000), UserStream(20000, 1.0, 7, 5000));
  EXPECT_NE(UserStream(20000, 1.0, 7, 5000), UserStream(20000, 1.0, 8, 5000));
  EXPECT_EQ(UserStream(500, 0.0, 3, 100), UserStream(500, 0.0, 3, 100));
}

TEST(Zipf, FrequenciesFollowRank) {
  const std::vector<int32_t> stream = UserStream(1000, 1.0, 11, 200000);
  std::map<int32_t, int> counts;
  for (int32_t u : stream) {
    ASSERT_GE(u, 0);
    ASSERT_LT(u, 1000);
    ++counts[u];
  }
  std::vector<int> sorted;
  for (const auto& [u, c] : counts) sorted.push_back(c);
  std::sort(sorted.rbegin(), sorted.rend());
  // Zipf(1): the top item is drawn about twice as often as the second and
  // about 1/H(1000) ~ 13% of the time.
  EXPECT_NEAR(static_cast<double>(sorted[0]) / sorted[1], 2.0, 0.2);
  EXPECT_NEAR(static_cast<double>(sorted[0]) / 200000, 0.1336, 0.01);
}

TEST(Zipf, UniformWhenExponentIsZero) {
  const std::vector<int32_t> stream = UserStream(10, 0.0, 5, 100000);
  std::vector<int> counts(10, 0);
  for (int32_t u : stream) ++counts[static_cast<size_t>(u)];
  for (int c : counts) EXPECT_NEAR(c, 10000, 500);
}

TEST(ExactLru, HitsEvictionAndClear) {
  // Capacity 2: a b a c b -> hit on the second a; c evicts b; b misses.
  EXPECT_EQ(ExactLruHits({1, 2, 1, 3, 2}, 2), 1);
  // Recency refresh: a b a c a -> a stays resident (b is evicted by c).
  EXPECT_EQ(ExactLruHits({1, 2, 1, 3, 1}, 2), 2);
  EXPECT_EQ(ExactLruHits({1, 1, 1}, 0), 0);
  EXPECT_EQ(ExactLruHits({1, 1, 1}, 4, {0, 1, 0}), 1);
}

TEST(ExactLru, CyclicStreamLargerThanCapacityNeverHits) {
  std::vector<uint64_t> keys;
  for (int round = 0; round < 3; ++round)
    for (uint64_t k = 0; k < 100; ++k) keys.push_back(k);
  EXPECT_EQ(ExactLruHits(keys, 99), 0);
  EXPECT_EQ(ExactLruHits(keys, 100), 200);
}

TEST(Ladder, BacklogDetection) {
  const double rate = 10000;  // one request every 100 us
  std::vector<int64_t> due, steady, growing;
  for (int i = 0; i < 20000; ++i) {
    due.push_back(int64_t{i} * 100'000);
    steady.push_back(due.back() + 300'000);
    // Service time 110 us against arrivals every 100 us: the queue grows.
    growing.push_back(int64_t{i + 1} * 110'000);
  }
  EXPECT_EQ(InFlightAt(due, steady, due[10000]), 3);
  EXPECT_FALSE(BacklogGrowing(due, steady, due.front(), due.back(), rate, 5));
  EXPECT_TRUE(BacklogGrowing(due, growing, due.front(), due.back(), rate, 5));
}

TEST(Ladder, KneeIsHighestPassAndTwoMissesEndTheLadder) {
  auto step = [](double rate, double p99, bool backlog = false,
                 int64_t failed = 0) {
    LadderStep s;
    s.rate = rate;
    s.achieved_qps = rate;
    s.p99_ms = p99;
    s.sent = 5000;
    s.failed = failed;
    s.backlog = backlog;
    return s;
  };
  const double limit = 5.0;
  EXPECT_EQ(LadderKnee({step(1, 1), step(2, 2), step(3, 9)}, limit), 1);
  // One missed step (a host stall) does not hide a higher passing one.
  EXPECT_EQ(LadderKnee({step(1, 6), step(2, 1)}, limit), 1);
  EXPECT_EQ(LadderKnee({step(1, 1), step(2, 1, true), step(3, 1)}, limit), 2);
  EXPECT_EQ(LadderKnee({step(1, 1), step(2, 1, false, 1)}, limit), 0);
  EXPECT_EQ(LadderKnee({step(1, 1), step(2, 5.0)}, limit), 1);
  EXPECT_EQ(LadderKnee({step(1, 9), step(2, 9)}, limit), -1);
  EXPECT_FALSE(LadderEnded({step(1, 1), step(2, 9)}, limit));
  EXPECT_FALSE(LadderEnded({step(1, 9), step(2, 1), step(3, 9)}, limit));
  EXPECT_TRUE(LadderEnded({step(1, 1), step(2, 9), step(3, 1, true)}, limit));
  EXPECT_FALSE(LadderEnded({step(1, 9)}, limit));
  LadderStep thin = step(1, 1);
  thin.sent = 999;  // too few samples for a p99
  EXPECT_FALSE(StepPasses(thin, limit));
  EXPECT_FALSE(StepPasses(step(1, 0.0), limit));  // no window had a p99
}

/// A tiny snapshot with values of both signs and a tie.
subrec::serve::SnapshotData TinySnapshot() {
  subrec::serve::SnapshotData data;
  data.split_year = 2010;
  const size_t n = 12, dim = 5;
  data.interest.ResizeOverwrite(n, dim);
  data.influence.ResizeOverwrite(n, dim);
  for (size_t p = 0; p < n; ++p) {
    for (size_t d = 0; d < dim; ++d) {
      data.interest.row_data(p)[d] =
          0.3 * static_cast<double>((p * 7 + d * 3) % 11) - 1.4;
      data.influence.row_data(p)[d] =
          0.25 * static_cast<double>((p * 5 + d * 2) % 9) - 0.9;
    }
    data.years.push_back(p < 6 ? 2009 : 2011);
    data.disciplines.push_back(static_cast<int32_t>(p % 2));
    data.topics.push_back(static_cast<int32_t>(p % 3));
  }
  // Paper 11 duplicates paper 10's influence row: a score tie.
  std::copy(data.influence.row_data(10), data.influence.row_data(10) + dim,
            data.influence.row_data(11));
  data.profiles = {{0, 2, 4}, {1}, {}};
  return data;
}

TEST(Reference, MatchesFrozenScorer) {
  const subrec::serve::SnapshotData data = TinySnapshot();
  const subrec::serve::FrozenScorer scorer(data);
  const std::vector<int32_t> candidates = NewPapers(data, data.split_year);
  ASSERT_EQ(candidates.size(), 6u);
  for (const auto& profile : data.profiles) {
    const std::vector<double> ref =
        ReferenceScores(data.interest.row_data(0), data.influence.row_data(0),
                        data.interest.cols(), profile, candidates);
    const std::vector<double> frozen = scorer.Score(profile, candidates);
    ASSERT_EQ(ref.size(), frozen.size());
    for (size_t i = 0; i < ref.size(); ++i) EXPECT_NEAR(ref[i], frozen[i], 1e-12);

    std::vector<Ranked> served;
    for (const auto& s : scorer.TopN(profile, candidates, 4))
      served.push_back({s.paper, s.score});
    EXPECT_TRUE(VerifyTopN(candidates, ref, served, 4, 1e-9));
    // The exact ranking and the served one agree, ties by lower id.
    const std::vector<Ranked> exact = ExactTopN(candidates, ref, 4);
    for (size_t i = 0; i < exact.size(); ++i)
      EXPECT_EQ(exact[i].paper, served[i].paper);
    EXPECT_DOUBLE_EQ(RecallAt(served, exact), 1.0);
    EXPECT_DOUBLE_EQ(GradedNdcg(exact, exact), 1.0);
  }
}

TEST(Reference, RejectsWrongServedLists) {
  const subrec::serve::SnapshotData data = TinySnapshot();
  const std::vector<int32_t> candidates = NewPapers(data, data.split_year);
  const std::vector<int32_t>& profile = data.profiles[0];
  const std::vector<double> ref =
      ReferenceScores(data.interest.row_data(0), data.influence.row_data(0),
                      data.interest.cols(), profile, candidates);
  const std::vector<Ranked> exact = ExactTopN(candidates, ref, 3);
  ASSERT_TRUE(VerifyTopN(candidates, ref, exact, 3, 1e-9));

  std::vector<Ranked> wrong_score = exact;
  wrong_score[1].score += 1e-6;
  EXPECT_FALSE(VerifyTopN(candidates, ref, wrong_score, 3, 1e-9));
  std::vector<Ranked> swapped = exact;
  std::swap(swapped[0], swapped[2]);
  EXPECT_FALSE(VerifyTopN(candidates, ref, swapped, 3, 1e-9));
  std::vector<Ranked> skipped = ExactTopN(candidates, ref, 4);
  skipped.erase(skipped.begin());  // drops the best candidate
  EXPECT_FALSE(VerifyTopN(candidates, ref, skipped, 3, 1e-9));
  std::vector<Ranked> outsider = exact;
  outsider[2].paper = 0;  // not a new paper
  EXPECT_FALSE(VerifyTopN(candidates, ref, outsider, 3, 1e-9));
  EXPECT_FALSE(VerifyTopN(candidates, ref,
                          std::vector<Ranked>(exact.begin(), exact.end() - 1),
                          3, 1e-9));
  EXPECT_LT(RecallAt(skipped, ExactTopN(candidates, ref, 3)), 1.0);
  EXPECT_LT(GradedNdcg(skipped, ExactTopN(candidates, ref, 3)), 1.0);
}

TEST(ServeWorld, FilteredCandidatesFollowTheDocumentedRule) {
  const subrec::serve::SnapshotData data = TinySnapshot();
  const std::vector<int32_t> pool = NewPapers(data, data.split_year);
  // Profile {0,2,4}: topics {0,2,1}, disciplines {0}: even new papers.
  EXPECT_EQ(FilteredCandidates(data, pool, {0, 2, 4}),
            (std::vector<int32_t>{6, 8, 10}));
  // Profile {1}: topic 1, discipline 1: new papers 7 (topic 1) only.
  EXPECT_EQ(FilteredCandidates(data, pool, {1}), (std::vector<int32_t>{7}));
  EXPECT_EQ(FilteredCandidates(data, pool, {}), pool);
}

}  // namespace
}  // namespace perfbench
