// Measurement plumbing shared by the workloads: wall clock, process CPU
// time, memory readings, the allocation counter, the span recorder of the
// traced run, and the flat metric map a run prints at its end.
#ifndef PERFBENCH_PROBE_H_
#define PERFBENCH_PROBE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace perfbench {

/// Monotonic nanoseconds (the same clock as the library's obs::NowNs, so
/// benchmark times and RecResponse timestamps compare directly).
int64_t NowNs();
double SecondsSince(int64_t start_ns);

/// User + system CPU seconds of the whole process.
double ProcessCpuSeconds();
/// Current resident set (VmRSS) in MB.
double RssMb();
/// Peak resident set (VmHWM) in MB.
double PeakRssMb();

// --- Allocation counting ------------------------------------------------------
// The counting operator new (alloc_counter.cc, linked into the benchmark
// binary only) bumps this counter while counting is on; off, each
// allocation pays one relaxed load.
extern std::atomic<bool> g_count_allocs;
extern std::atomic<int64_t> g_allocs;
inline int64_t AllocCount() { return g_allocs.load(std::memory_order_relaxed); }

// --- Spans --------------------------------------------------------------------

struct SpanRecord {
  const char* name = nullptr;  // string literal
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;  // index into the span list, -1 for a root
  int64_t request_id = -1;
};

/// In-memory span store. Spans nest per thread (a thread-local stack
/// supplies the parent); sampled requests are added after the fact with
/// their request id. Written out and summarized when the run ends.
class SpanLog {
 public:
  static SpanLog& Global();
  void Enable() { enabled_.store(true); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Opens a span on the calling thread; returns its index (-1 if off).
  int32_t Open(const char* name);
  void Close(int32_t index);
  /// Adds a finished span (for requests timed by the load generator).
  void Add(const char* name, int64_t start_ns, int64_t end_ns,
           int32_t parent, int64_t request_id);

  /// Self time in seconds per span name: duration minus the part covered
  /// by child spans.
  std::map<std::string, double> SelfSeconds() const;
  /// Writes every span plus the self-time summary as JSON to `path`.
  bool WriteJson(const std::string& path) const;

 private:
  std::atomic<bool> enabled_{false};
  mutable subrec::common::Mutex mu_;
  std::vector<SpanRecord> spans_ SUBREC_GUARDED_BY(mu_);
};

/// RAII span around one call into a layer (no-op unless the log is on).
class Span {
 public:
  explicit Span(const char* name) : index_(SpanLog::Global().Open(name)) {}
  ~Span() { SpanLog::Global().Close(index_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  int32_t index() const { return index_; }

 private:
  int32_t index_;
};

// --- Metrics ------------------------------------------------------------------

/// Name -> value map of one run; the end_to_end or per_layer subset is
/// printed as the final JSON line.
using Metrics = std::map<std::string, double>;

/// Times one stage of a workload: records `<key>` seconds on destruction
/// and, in the traced run, `<stage>.allocs` and `<stage>.rss_mb` (allocation
/// count during the stage, resident set right after it).
class Stage {
 public:
  Stage(Metrics* metrics, const char* stage, const char* seconds_key);
  ~Stage();
  Stage(const Stage&) = delete;
  Stage& operator=(const Stage&) = delete;
  double Elapsed() const { return SecondsSince(start_ns_); }
  int32_t span_index() const { return span_.index(); }

 private:
  Metrics* metrics_;
  std::string stage_;
  const char* seconds_key_;
  Span span_;
  int64_t start_ns_;
  int64_t start_allocs_;
};

}  // namespace perfbench

#endif  // PERFBENCH_PROBE_H_
