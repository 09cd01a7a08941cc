#include "logic.h"

#include <algorithm>
#include <cmath>
#include <list>
#include <numeric>
#include <unordered_map>
#include <unordered_set>

#include "common/rng.h"

namespace perfbench {

double NearestRank(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double n = static_cast<double>(sorted.size());
  size_t rank = static_cast<size_t>(std::ceil(q * n));
  rank = std::clamp<size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

int64_t SamplesBeyond(int64_t n, double q) {
  if (n <= 0) return 0;
  const auto rank =
      static_cast<int64_t>(std::ceil(q * static_cast<double>(n)));
  return n - std::clamp<int64_t>(rank, 1, n);
}

double HighestReportablePercentile(int64_t n) {
  for (double q : {0.999, 0.99, 0.95, 0.9, 0.5})
    if (SamplesBeyond(n, q) >= 10) return q;
  return 0.0;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  if (values.size() % 2 == 1) return values[mid];
  return 0.5 * (values[mid - 1] + values[mid]);
}

double MedianWindowPercentile(const std::vector<int64_t>& due_ns,
                              const std::vector<double>& latency_ms,
                              int64_t start_ns, int64_t window_ns, double q) {
  std::vector<std::vector<double>> windows;
  for (size_t i = 0; i < due_ns.size(); ++i) {
    const auto w = static_cast<size_t>(
        std::max<int64_t>(0, due_ns[i] - start_ns) / window_ns);
    if (w >= windows.size()) windows.resize(w + 1);
    windows[w].push_back(latency_ms[i]);
  }
  std::vector<double> per_window;
  for (std::vector<double>& w : windows) {
    if (SamplesBeyond(static_cast<int64_t>(w.size()), q) < 10) continue;
    std::sort(w.begin(), w.end());
    per_window.push_back(NearestRank(w, q));
  }
  return Median(std::move(per_window));
}

ZipfSampler::ZipfSampler(size_t n, double s, uint64_t seed) : rng_(seed) {
  cdf_.resize(n);
  double total = 0.0;
  for (size_t k = 0; k < n; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), s);
    cdf_[k] = total;
  }
  for (double& c : cdf_) c /= total;
  rank_to_item_.resize(n);
  std::iota(rank_to_item_.begin(), rank_to_item_.end(), 0);
  for (size_t i = n; i > 1; --i) {
    const size_t j = rng_.UniformInt(i);
    std::swap(rank_to_item_[i - 1], rank_to_item_[j]);
  }
}

int32_t ZipfSampler::Next() {
  const double u = rng_.UniformDouble();
  const size_t rank = static_cast<size_t>(
      std::upper_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
  return rank_to_item_[std::min(rank, cdf_.size() - 1)];
}

int64_t ExactLruHits(const std::vector<uint64_t>& keys, size_t capacity,
                     const std::vector<uint8_t>& clear_before) {
  if (capacity == 0) return 0;
  std::list<uint64_t> order;  // front = most recent
  std::unordered_map<uint64_t, std::list<uint64_t>::iterator> where;
  int64_t hits = 0;
  for (size_t i = 0; i < keys.size(); ++i) {
    if (!clear_before.empty() && clear_before[i] != 0) {
      order.clear();
      where.clear();
    }
    auto it = where.find(keys[i]);
    if (it != where.end()) {
      ++hits;
      order.splice(order.begin(), order, it->second);
      continue;
    }
    order.push_front(keys[i]);
    where[keys[i]] = order.begin();
    if (where.size() > capacity) {
      where.erase(order.back());
      order.pop_back();
    }
  }
  return hits;
}

int64_t InFlightAt(const std::vector<int64_t>& due_ns,
                   const std::vector<int64_t>& done_ns, int64_t t) {
  int64_t count = 0;
  for (size_t i = 0; i < due_ns.size(); ++i)
    if (due_ns[i] <= t && done_ns[i] > t) ++count;
  return count;
}

bool BacklogGrowing(const std::vector<int64_t>& due_ns,
                    const std::vector<int64_t>& done_ns, int64_t start_ns,
                    int64_t end_ns, double rate_per_s, double limit_ms) {
  const int64_t span = end_ns - start_ns;
  const int64_t quarter = InFlightAt(due_ns, done_ns, start_ns + span / 4);
  const int64_t half = InFlightAt(due_ns, done_ns, start_ns + span / 2);
  const int64_t end = InFlightAt(due_ns, done_ns, end_ns);
  const double slack = std::ceil(rate_per_s * limit_ms / 1e3);
  return static_cast<double>(end - std::max(quarter, half)) > slack;
}

bool StepPasses(const LadderStep& step, double limit_ms) {
  return step.failed == 0 && !step.backlog && step.p99_ms > 0.0 &&
         step.p99_ms <= limit_ms && SamplesBeyond(step.sent, 0.99) >= 10;
}

bool LadderEnded(const std::vector<LadderStep>& steps, double limit_ms) {
  if (steps.size() < static_cast<size_t>(kLadderMissesToStop)) return false;
  for (size_t i = steps.size() - kLadderMissesToStop; i < steps.size(); ++i)
    if (StepPasses(steps[i], limit_ms)) return false;
  return true;
}

int LadderKnee(const std::vector<LadderStep>& steps, double limit_ms) {
  int knee = -1;
  for (size_t i = 0; i < steps.size(); ++i)
    if (StepPasses(steps[i], limit_ms)) knee = static_cast<int>(i);
  return knee;
}

std::vector<double> ReferenceScores(const double* interest,
                                    const double* influence, size_t dim,
                                    const std::vector<int32_t>& profile,
                                    const std::vector<int32_t>& candidates) {
  std::vector<double> scores(candidates.size(), 0.0);
  if (profile.empty()) return scores;
  for (size_t c = 0; c < candidates.size(); ++c) {
    const double* q = influence + static_cast<size_t>(candidates[c]) * dim;
    double sum = 0.0;
    for (int32_t pid : profile) {
      const double* p = interest + static_cast<size_t>(pid) * dim;
      double dot = 0.0;
      for (size_t d = 0; d < dim; ++d) dot += p[d] * q[d];
      sum += 1.0 / (1.0 + std::exp(-dot));
    }
    scores[c] = sum / static_cast<double>(profile.size());
  }
  return scores;
}

std::vector<Ranked> ExactTopN(const std::vector<int32_t>& candidates,
                              const std::vector<double>& scores, size_t n) {
  std::vector<Ranked> all(candidates.size());
  for (size_t i = 0; i < candidates.size(); ++i)
    all[i] = {candidates[i], scores[i]};
  const size_t keep = std::min(n, all.size());
  std::partial_sort(all.begin(), all.begin() + static_cast<ptrdiff_t>(keep),
                    all.end(), [](const Ranked& a, const Ranked& b) {
                      if (a.score != b.score) return a.score > b.score;
                      return a.paper < b.paper;
                    });
  all.resize(keep);
  return all;
}

bool VerifyTopN(const std::vector<int32_t>& candidates,
                const std::vector<double>& ref_scores,
                const std::vector<Ranked>& served, size_t n, double tol) {
  if (served.size() != std::min(n, candidates.size())) return false;
  std::unordered_map<int32_t, double> ref;
  ref.reserve(candidates.size());
  for (size_t i = 0; i < candidates.size(); ++i)
    ref[candidates[i]] = ref_scores[i];
  std::unordered_set<int32_t> seen;
  for (size_t i = 0; i < served.size(); ++i) {
    auto it = ref.find(served[i].paper);
    if (it == ref.end() || !seen.insert(served[i].paper).second) return false;
    if (std::abs(it->second - served[i].score) > tol) return false;
    if (i > 0 && served[i].score > served[i - 1].score + tol) return false;
  }
  if (served.empty()) return true;
  const double floor = served.back().score;
  for (size_t i = 0; i < candidates.size(); ++i)
    if (seen.count(candidates[i]) == 0 && ref_scores[i] > floor + tol)
      return false;
  return true;
}

double RecallAt(const std::vector<Ranked>& served,
                const std::vector<Ranked>& exact) {
  if (exact.empty()) return 1.0;
  std::unordered_set<int32_t> truth;
  for (const Ranked& r : exact) truth.insert(r.paper);
  size_t hit = 0;
  for (const Ranked& r : served) hit += truth.count(r.paper);
  return static_cast<double>(hit) / static_cast<double>(exact.size());
}

double GradedNdcg(const std::vector<Ranked>& served_with_ref_scores,
                  const std::vector<Ranked>& exact) {
  double dcg = 0.0, ideal = 0.0;
  for (size_t i = 0; i < exact.size(); ++i) {
    const double discount = 1.0 / std::log2(static_cast<double>(i) + 2.0);
    ideal += exact[i].score * discount;
    if (i < served_with_ref_scores.size())
      dcg += served_with_ref_scores[i].score * discount;
  }
  return ideal > 0.0 ? dcg / ideal : 1.0;
}

}  // namespace perfbench
