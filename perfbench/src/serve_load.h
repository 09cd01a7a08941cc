// The serving half of every workload: an open-loop load generator in front
// of RecommendService (one fixed-rate phase, then a fixed absolute capacity
// ladder), snapshot reloads (while idle, or on a fixed cadence under load),
// and the checks of served responses against the benchmark's own
// reference scorer.
#ifndef PERFBENCH_SERVE_LOAD_H_
#define PERFBENCH_SERVE_LOAD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "probe.h"
#include "serve/service.h"
#include "serve/snapshot.h"

namespace perfbench {

struct ServePlan {
  /// Worker count, cache and retrieval settings of the service under test.
  subrec::serve::ServeOptions service;
  /// Every request's candidates are the whole in-window new-paper pool: the
  /// service's topic and discipline filters are off.
  bool full_pool = false;
  /// Zipf exponent of the user stream; 0 draws users uniformly.
  double zipf_s = 0.0;
  /// Fixed-rate load: `slices` slices of `slice_seconds` at an absolute
  /// offered rate, interleaved with the ladder steps.
  double fixed_rate = 0.0;
  double slice_seconds = 0.0;
  int slices = 0;
  /// Capacity ladder: absolute offered rates (ascending) and step length.
  std::vector<double> ladder;
  double step_seconds = 0.0;
  /// Reloads run back to back on the idle service after the load phases.
  int idle_reloads = 0;
  /// Reloads under load: a background thread reloads the snapshot back to
  /// back during every slice and ladder step.
  bool reload_under_load = false;
};

struct Tally {
  int64_t attempted = 0;
  int64_t failed = 0;
};

/// p99 latency limit a ladder step must meet, the same on every workload.
inline constexpr double kLatencyLimitMs = 20.0;

/// Loads `snapshot_path` into a service built from `plan`, runs the load
/// phases and reloads, and checks served responses against `reference`
/// (the data the snapshot was written from). With `trace`, reloads run as
/// their timed public steps and the scorer and the ANN index are also timed
/// directly. Writes reload_s, recall10 and
/// serve_ndcg20 plus the serving per-layer metrics (open-loop latency and
/// capacity among them) into `metrics`; every request, reload and check is
/// counted in `tally`.
void RunServePhases(const std::string& snapshot_path,
                    const subrec::serve::SnapshotData& reference,
                    const ServePlan& plan, uint64_t seed, bool trace,
                    Metrics* metrics, Tally* tally);

}  // namespace perfbench

#endif  // PERFBENCH_SERVE_LOAD_H_
