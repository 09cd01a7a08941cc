#ifndef SUBREC_OBS_TRACE_H_
#define SUBREC_OBS_TRACE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace subrec::obs {

/// One completed span. `name` must be a string literal (or otherwise outlive
/// the recorder) — spans are recorded on hot paths and must not allocate.
struct TraceEvent {
  const char* name = nullptr;
  int64_t start_ns = 0;
  int64_t duration_ns = 0;
  int tid = 0;
};

/// Per-span aggregate over every span recorded since Enable/Clear.
struct SpanTotal {
  std::string name;
  int64_t count = 0;
  int64_t total_ns = 0;
};

/// Monotonic (steady-clock) nanoseconds since an arbitrary epoch.
int64_t NowNs();

/// Small dense id for the calling thread (0, 1, 2, ... in first-use order).
/// Stable for the thread's lifetime; used for trace tids and log prefixes.
int DenseThreadId();

/// Process-wide bounded span recorder. Disabled by default: the only cost on
/// an instrumented path is one relaxed atomic load. When enabled, completed
/// spans land in a fixed-capacity ring buffer (oldest overwritten first)
/// behind a mutex — spans are coarse-grained (an E-step, an epoch), so
/// contention is negligible.
class TraceRecorder {
 public:
  static TraceRecorder& Global();

  /// Starts recording into a fresh ring of `capacity` spans.
  void Enable(size_t capacity = 1 << 16);
  void Disable();
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Records a completed span; no-op while disabled.
  void Record(const char* name, int64_t start_ns, int64_t duration_ns);

  /// Recorded spans, oldest first. `dropped` (if non-null) receives the
  /// number of spans overwritten by ring wraparound.
  std::vector<TraceEvent> Events(int64_t* dropped = nullptr) const;

  /// Spans overwritten by ring wraparound this window. Overwrites also
  /// increment the "obs.trace.dropped" registry counter as they happen, so
  /// a ring sized too small for its window is visible without a dump.
  int64_t DroppedSpans() const;

  void Clear();

  /// Per-name count and wall-time totals over every span recorded since
  /// Enable/Clear, including spans the ring has since overwritten, sorted
  /// by descending total time.
  std::vector<SpanTotal> AggregateTotals() const;

  /// Serializes the window as a Chrome trace_event JSON array (load via
  /// chrome://tracing or https://ui.perfetto.dev). Timestamps are rebased
  /// so the earliest span starts at ts=0.
  std::string ChromeTraceJson() const;

 private:
  // The disabled fast path is ONE relaxed load of this flag — Record and
  // TraceSpan must not touch mu_ before checking it.
  std::atomic<bool> enabled_{false};
  mutable common::Mutex mu_;
  std::vector<TraceEvent> ring_ SUBREC_GUARDED_BY(mu_);
  size_t capacity_ SUBREC_GUARDED_BY(mu_) = 0;
  // Ring write cursor.
  size_t next_ SUBREC_GUARDED_BY(mu_) = 0;
  // Spans ever recorded this window.
  int64_t total_ SUBREC_GUARDED_BY(mu_) = 0;
  // Running count and wall time per span name, keyed by the name's pointer
  // (one entry per literal), so totals survive ring wraparound.
  struct NameTotal {
    int64_t count = 0;
    int64_t total_ns = 0;
  };
  std::unordered_map<const char*, NameTotal> totals_ SUBREC_GUARDED_BY(mu_);
};

/// RAII scoped timer: measures from construction to destruction and hands
/// the span to the global recorder. Prefer the SUBREC_TRACE_SPAN macro.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name) {
    if (TraceRecorder::Global().enabled()) {
      name_ = name;
      start_ns_ = NowNs();
    }
  }
  ~TraceSpan() {
    if (name_ != nullptr) {
      TraceRecorder::Global().Record(name_, start_ns_, NowNs() - start_ns_);
    }
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  const char* name_ = nullptr;
  int64_t start_ns_ = 0;
};

}  // namespace subrec::obs

#define SUBREC_TRACE_CONCAT_INNER_(a, b) a##b
#define SUBREC_TRACE_CONCAT_(a, b) SUBREC_TRACE_CONCAT_INNER_(a, b)

/// Times the enclosing scope under `name` (a string literal such as
/// "gmm/e_step"). Near-zero cost when tracing is disabled.
#define SUBREC_TRACE_SPAN(name) \
  ::subrec::obs::TraceSpan SUBREC_TRACE_CONCAT_(subrec_trace_span_, \
                                                __LINE__)(name)

#endif  // SUBREC_OBS_TRACE_H_
