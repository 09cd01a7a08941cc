#ifndef SUBREC_OBS_WINDOW_H_
#define SUBREC_OBS_WINDOW_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace subrec::obs {

class JsonWriter;

/// Configuration of the rolling-window aggregator. The defaults give 64
/// seconds of history at 500ms resolution, which is enough to serve 1s /
/// 10s / 60s windows.
struct WindowOptions {
  /// Width of one time slice. Rolling windows are assembled from whole
  /// slices, so this is the resolution of every rate and percentile.
  int64_t slice_ns = 500'000'000;
  /// Ring length per stripe; slice_ns * num_slices is the usable history.
  size_t num_slices = 128;
  /// Independent lock stripes. Every recording thread hashes (by dense
  /// thread id) to one stripe, so writers on different stripes never
  /// contend; snapshots merge all stripes.
  size_t num_stripes = 8;
  /// Upper bucket edges for the per-slice latency histogram, in
  /// microseconds; empty selects a default 1us..100ms grid.
  std::vector<double> latency_bounds_us;
  /// Window lengths served by Snapshot(); empty selects {1s, 10s, 60s}.
  /// Each must be a multiple of slice_ns no longer than the ring.
  std::vector<int64_t> window_ns;
};

/// Aggregates over one rolling window. `qps` divides by the time the window
/// has actually covered: its full length once the aggregator has been up
/// that long, its uptime before then.
struct WindowStats {
  double window_seconds = 0.0;
  int64_t requests = 0;
  int64_t errors = 0;
  int64_t cache_hits = 0;
  int64_t shed = 0;
  double qps = 0.0;
  double mean_us = 0.0;
  double p50_us = 0.0;
  double p95_us = 0.0;
  double p99_us = 0.0;
  double error_rate = 0.0;
  double cache_hit_rate = 0.0;
  double shed_rate = 0.0;
};

/// Point-in-time view over every configured rolling window.
struct WindowSnapshot {
  int64_t now_ns = 0;
  std::vector<WindowStats> windows;

  /// The stats for the window closest to `seconds` long (empty snapshot
  /// returns a zero WindowStats).
  const WindowStats& Closest(double seconds) const;

  /// Emits {"windows":[{"seconds":...,"qps":...},...]} as one value.
  void WriteJson(JsonWriter* w) const;
};

/// Lock-striped ring of fixed time-slice histogram/counter buckets: every
/// completed request lands in the slice covering its completion time, and
/// rolling 1s/10s/60s latency percentiles, QPS, and error/cache-hit/shed
/// rates are read back by merging the slices inside each window — all
/// without ever resetting the process-lifetime registry instruments.
///
/// Record is wait-free against other stripes and allocation-free: all slice
/// storage is laid out at construction. Timestamps come from the caller
/// (obs::NowNs in production) so tests drive the clock explicitly.
class WindowedAggregator {
 public:
  /// `start_ns` is when the aggregator starts covering traffic, on the
  /// clock the caller passes to Record/Snapshot (obs::NowNs in production).
  explicit WindowedAggregator(WindowOptions options = {},
                              int64_t start_ns = 0);

  /// Folds one completed request into the slice covering `now_ns`.
  void Record(int64_t now_ns, double latency_us, bool error, bool cache_hit,
              bool shed);

  /// Merged view of every configured window ending at `now_ns`. Slices
  /// older than their window (or never written) are skipped, so a snapshot
  /// taken after a quiet period reports zero traffic rather than stale
  /// counts.
  WindowSnapshot Snapshot(int64_t now_ns) const;

  const WindowOptions& options() const { return options_; }

 private:
  /// One time slice of one stripe. `epoch` is the absolute slice index
  /// (now_ns / slice_ns) the data belongs to; a writer that lands on a slot
  /// holding an older epoch resets it first, which is how the ring ages out
  /// without a background thread.
  struct Slice {
    int64_t epoch = -1;
    int64_t requests = 0;
    int64_t errors = 0;
    int64_t cache_hits = 0;
    int64_t shed = 0;
    double sum_us = 0.0;
    std::vector<int64_t> buckets;  // latency_bounds_us.size() + 1
  };

  struct alignas(64) Stripe {
    mutable common::Mutex mu;
    std::vector<Slice> slices SUBREC_GUARDED_BY(mu);
  };

  size_t BucketFor(double latency_us) const;

  WindowOptions options_;
  int64_t start_ns_;
  std::vector<std::unique_ptr<Stripe>> stripes_;
};

}  // namespace subrec::obs

#endif  // SUBREC_OBS_WINDOW_H_
