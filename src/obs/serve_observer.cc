#include "obs/serve_observer.h"

#include <utility>

#include "obs/trace.h"

namespace subrec::obs {

ServeObserver::ServeObserver(ServeObserverOptions options)
    : options_(std::move(options)) {
  if (!options_.enabled) return;
  window_ = std::make_unique<WindowedAggregator>(options_.window, NowNs());
  recorder_ = std::make_unique<FlightRecorder>(options_.recorder);
  enabled_.store(true, std::memory_order_relaxed);
}

int64_t ServeObserver::OnComplete(int64_t now_ns, double latency_us,
                                  bool error, bool cache_hit, bool shed,
                                  const RequestTrace* trace) {
  if (!enabled()) return 0;
  window_->Record(now_ns, latency_us, error, cache_hit, shed);
  if (trace == nullptr) return 0;
  for (int s = 0; s < kNumStages; ++s) {
    if (trace->stage_ns[s] == 0) continue;
    stage_total_ns_[s].fetch_add(trace->stage_ns[s],
                                 std::memory_order_relaxed);
    stage_sampled_[s].fetch_add(1, std::memory_order_relaxed);
  }
  return recorder_->Record(*trace);
}

std::vector<StageStat> ServeObserver::StageStats() const {
  std::vector<StageStat> out;
  if (!enabled()) return out;
  out.reserve(kNumStages);
  for (int s = 0; s < kNumStages; ++s) {
    StageStat stat;
    stat.name = StageName(static_cast<Stage>(s));
    stat.sampled = stage_sampled_[s].load(std::memory_order_relaxed);
    stat.total_us =
        static_cast<double>(
            stage_total_ns_[s].load(std::memory_order_relaxed)) /
        1e3;
    stat.mean_us = stat.sampled > 0
                       ? stat.total_us / static_cast<double>(stat.sampled)
                       : 0.0;
    out.push_back(stat);
  }
  return out;
}

}  // namespace subrec::obs
