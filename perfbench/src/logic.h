// Pure, unit-tested logic of the benchmark: percentile rules, the seeded
// Zipf user stream, the exact-LRU replay behind the cache hit-ratio bound,
// ladder knee and backlog detection, and the reference scorer every served
// response is checked against. Nothing here touches the service or a clock.
#ifndef PERFBENCH_LOGIC_H_
#define PERFBENCH_LOGIC_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/rng.h"

namespace perfbench {

// --- Percentiles -----------------------------------------------------------

/// Nearest-rank percentile of `sorted` (ascending): the smallest value with
/// at least q*n values at or below it. q in (0, 1]; empty input gives 0.
double NearestRank(const std::vector<double>& sorted, double q);

/// Number of samples strictly beyond the nearest-rank q-percentile of n
/// samples: n - ceil(q*n).
int64_t SamplesBeyond(int64_t n, double q);

/// The highest of {0.999, 0.99, 0.95, 0.9, 0.5} that has at least ten
/// samples beyond it among n samples, or 0 when even the median has fewer
/// (n < 20).
double HighestReportablePercentile(int64_t n);

/// Median of an unsorted sample (mean of the two middle values for even
/// sizes); 0 for an empty sample.
double Median(std::vector<double> values);

/// Median over consecutive windows of `window_ns` (by due time, from
/// `start_ns`) of each window's nearest-rank q-percentile latency. Only
/// windows with at least ten samples beyond their q-percentile count; 0 when
/// none does. One host stall then moves the percentile of one window, not
/// of the whole phase.
double MedianWindowPercentile(const std::vector<int64_t>& due_ns,
                              const std::vector<double>& latency_ms,
                              int64_t start_ns, int64_t window_ns, double q);

// --- Seeded user streams ---------------------------------------------------

/// Zipf(s) over n items: item ranks drawn by inverse CDF from the repo's
/// seeded Rng, then mapped through a seeded permutation so the hot items
/// are spread over the id space; s == 0 gives the uniform stream. The same
/// (n, s, seed) always yields the same stream, on every platform.
class ZipfSampler {
 public:
  ZipfSampler(size_t n, double s, uint64_t seed);
  /// The next item id in [0, n).
  int32_t Next();

 private:
  std::vector<double> cdf_;
  std::vector<int32_t> rank_to_item_;
  subrec::Rng rng_;
};

// --- Cache bound -------------------------------------------------------------

/// Replays `keys` through one exact LRU of `capacity` entries and returns
/// the number of hits. `clear_before[i]` (optional, same length as keys)
/// empties the cache before key i, mirroring the service's invalidation on
/// snapshot swap.
int64_t ExactLruHits(const std::vector<uint64_t>& keys, size_t capacity,
                     const std::vector<uint8_t>& clear_before = {});

// --- Load ladder -------------------------------------------------------------

/// Requests due before or at `t` and not yet done after it.
int64_t InFlightAt(const std::vector<int64_t>& due_ns,
                   const std::vector<int64_t>& done_ns, int64_t t);

/// True when the in-flight count at the end of [start, end] exceeds the
/// larger of the counts at the quarter and half marks by more than what
/// the latency limit itself allows (rate * limit): work arrives faster
/// than it completes, so the backlog grows through the step.
bool BacklogGrowing(const std::vector<int64_t>& due_ns,
                    const std::vector<int64_t>& done_ns, int64_t start_ns,
                    int64_t end_ns, double rate_per_s, double limit_ms);

struct LadderStep {
  double rate = 0.0;         // offered requests per second
  double achieved_qps = 0.0; // successes per second of step wall time
  double p99_ms = 0.0;
  int64_t sent = 0;
  int64_t failed = 0;
  bool backlog = false;
};

/// A step passes when nothing failed, p99 stays within the limit, enough
/// samples back the p99 (a p99 of 0 means none did), and the backlog did
/// not grow.
bool StepPasses(const LadderStep& step, double limit_ms);

/// Consecutive missed steps that end a ladder: one miss alone may be a
/// host stall, so the ladder goes on past it.
inline constexpr int kLadderMissesToStop = 2;

/// True once the last kLadderMissesToStop steps all missed.
bool LadderEnded(const std::vector<LadderStep>& steps, double limit_ms);

/// Index of the highest passing step (steps in ascending rate order, as run
/// until LadderEnded), or -1 when none passed. Each passing step shows the
/// service sustained that rate within the limit.
int LadderKnee(const std::vector<LadderStep>& steps, double limit_ms);

// --- Reference scoring -------------------------------------------------------

/// The benchmark's own scorer over the snapshot's row-major matrices: for
/// each candidate q, the mean over profile papers p of
/// 1 / (1 + exp(-<interest[p], influence[q]>)), in std::exp arithmetic.
/// Zeros for an empty profile.
std::vector<double> ReferenceScores(const double* interest,
                                    const double* influence, size_t dim,
                                    const std::vector<int32_t>& profile,
                                    const std::vector<int32_t>& candidates);

struct Ranked {
  int32_t paper = -1;
  double score = 0.0;
};

/// Exact top-n of `candidates` by `scores` (descending, ties by lower id).
std::vector<Ranked> ExactTopN(const std::vector<int32_t>& candidates,
                              const std::vector<double>& scores, size_t n);

/// Checks a served top-n list against reference scores of the full
/// candidate list: the right length, every item a candidate whose served
/// score is within `tol` of its reference, descending order, and no left
/// out candidate scoring more than `tol` above the last served item.
bool VerifyTopN(const std::vector<int32_t>& candidates,
                const std::vector<double>& ref_scores,
                const std::vector<Ranked>& served, size_t n, double tol);

/// |served ∩ exact| / |exact| over paper ids (1 when exact is empty).
double RecallAt(const std::vector<Ranked>& served,
                const std::vector<Ranked>& exact);

/// Graded nDCG of a served list: gains are the reference scores of the
/// served papers, the ideal is `exact` (the true top list, same length).
double GradedNdcg(const std::vector<Ranked>& served_with_ref_scores,
                  const std::vector<Ranked>& exact);

}  // namespace perfbench

#endif  // PERFBENCH_LOGIC_H_
