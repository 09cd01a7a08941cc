#include "obs/trace.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <string_view>
#include <utility>

#include "common/check.h"
#include "obs/json_writer.h"
#include "obs/metrics.h"

namespace subrec::obs {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int DenseThreadId() {
  static std::atomic<int> next{0};
  thread_local const int id = next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

TraceRecorder& TraceRecorder::Global() {
  static TraceRecorder* const recorder = new TraceRecorder();
  return *recorder;
}

void TraceRecorder::Enable(size_t capacity) {
  SUBREC_CHECK_GT(capacity, 0u);
  common::MutexLock lock(&mu_);
  capacity_ = capacity;
  ring_.clear();
  ring_.reserve(std::min<size_t>(capacity, 1024));
  next_ = 0;
  total_ = 0;
  totals_.clear();
  enabled_.store(true, std::memory_order_relaxed);
}

void TraceRecorder::Disable() {
  enabled_.store(false, std::memory_order_relaxed);
}

void TraceRecorder::Record(const char* name, int64_t start_ns,
                           int64_t duration_ns) {
  if (!enabled()) return;
  TraceEvent ev;
  ev.name = name;
  ev.start_ns = start_ns;
  ev.duration_ns = duration_ns;
  ev.tid = DenseThreadId();
  // Overwrites are silent data loss for the eventual dump; count them so a
  // ring sized below its recording window shows up in the metrics.
  static Counter* const dropped_counter =
      MetricsRegistry::Global().GetCounter("obs.trace.dropped");
  bool overwrote = false;
  {
    common::MutexLock lock(&mu_);
    if (capacity_ == 0) return;  // raced with Disable+reconfigure
    if (ring_.size() < capacity_) {
      ring_.push_back(ev);
    } else {
      ring_[next_] = ev;
      next_ = (next_ + 1) % capacity_;
      overwrote = true;
    }
    ++total_;
    NameTotal& t = totals_[name];
    ++t.count;
    t.total_ns += duration_ns;
  }
  if (overwrote) dropped_counter->Increment();
}

int64_t TraceRecorder::DroppedSpans() const {
  common::MutexLock lock(&mu_);
  return total_ - static_cast<int64_t>(ring_.size());
}

std::vector<TraceEvent> TraceRecorder::Events(int64_t* dropped) const {
  common::MutexLock lock(&mu_);
  std::vector<TraceEvent> out;
  out.reserve(ring_.size());
  // Oldest-first: once the ring has wrapped, next_ points at the oldest slot.
  if (ring_.size() == capacity_ && capacity_ > 0) {
    for (size_t i = 0; i < capacity_; ++i) {
      out.push_back(ring_[(next_ + i) % capacity_]);
    }
  } else {
    out = ring_;
  }
  if (dropped != nullptr) {
    *dropped = total_ - static_cast<int64_t>(ring_.size());
  }
  return out;
}

void TraceRecorder::Clear() {
  common::MutexLock lock(&mu_);
  ring_.clear();
  next_ = 0;
  total_ = 0;
  totals_.clear();
}

std::vector<SpanTotal> TraceRecorder::AggregateTotals() const {
  // Equal names from different translation units may be distinct literals;
  // merge them by content.
  std::map<std::string_view, SpanTotal> by_name;
  {
    common::MutexLock lock(&mu_);
    for (const auto& [name, nt] : totals_) {
      SpanTotal& t = by_name[name];
      if (t.name.empty()) t.name = name;
      t.count += nt.count;
      t.total_ns += nt.total_ns;
    }
  }
  std::vector<SpanTotal> out;
  out.reserve(by_name.size());
  for (auto& [name, total] : by_name) out.push_back(std::move(total));
  std::sort(out.begin(), out.end(), [](const SpanTotal& a, const SpanTotal& b) {
    return a.total_ns > b.total_ns;
  });
  return out;
}

std::string TraceRecorder::ChromeTraceJson() const {
  const std::vector<TraceEvent> events = Events();
  int64_t base_ns = 0;
  for (const TraceEvent& ev : events) {
    if (base_ns == 0 || ev.start_ns < base_ns) base_ns = ev.start_ns;
  }
  JsonWriter w;
  w.BeginArray();
  for (const TraceEvent& ev : events) {
    // Complete-event ("ph":"X") records; ts/dur are in microseconds per the
    // trace_event spec.
    w.BeginObject();
    w.Key("name").String(ev.name);
    w.Key("cat").String("subrec");
    w.Key("ph").String("X");
    w.Key("ts").Number(static_cast<double>(ev.start_ns - base_ns) / 1e3);
    w.Key("dur").Number(static_cast<double>(ev.duration_ns) / 1e3);
    w.Key("pid").Int(1);
    w.Key("tid").Int(ev.tid);
    w.EndObject();
  }
  w.EndArray();
  return w.str();
}

}  // namespace subrec::obs
