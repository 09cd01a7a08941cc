// The three workloads. Each fills the run's metric map (end-to-end and
// per-layer names alike; main prints the subset the run was asked for) and
// counts every operation and every failed check in the tally.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "probe.h"
#include "serve_load.h"

namespace perfbench {

/// par threads for the offline fit and the serving fit (HNSW build). Two
/// of the four host threads: measured far steadier than four on a shared
/// host, where more busy vCPUs draw more stalls from other tenants.
inline constexpr size_t kFitThreads = 2;

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  bool trace = false;
  /// Scratch directory for snapshots (inside the checkout).
  std::string workdir;
  /// Set-up repetitions; setup_s is their median.
  int setup_repeats = 3;
  ServePlan plan;
};

/// offline_fit: Scopus-like kSmall corpus -> SEM -> NPRec -> Table IV
/// nDCG@20 -> freeze -> snapshot, then the trained snapshot served with
/// `config.plan`.
void RunOfflineFit(const RunConfig& config, Metrics* metrics, Tally* tally);

/// serve_filtered / serve_ann_skewed: the synthetic 1e5-paper snapshot
/// served with `config.plan`.
void RunServeWorkload(const RunConfig& config, Metrics* metrics, Tally* tally);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
