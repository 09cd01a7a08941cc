#include "obs/window.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/check.h"
#include "obs/json_writer.h"
#include "obs/trace.h"

namespace subrec::obs {
namespace {

std::vector<double> DefaultLatencyBoundsUs() {
  return {1.0,    2.0,    5.0,     10.0,    25.0,    50.0,     100.0,   250.0,
          500.0,  1000.0, 2500.0,  5000.0,  10000.0, 25000.0,  50000.0, 100000.0};
}

std::vector<int64_t> DefaultWindowsNs() {
  return {1'000'000'000, 10'000'000'000, 60'000'000'000};
}

/// Merged counters for one rolling window while a snapshot walks stripes.
struct Merged {
  int64_t first_epoch = 0;  // inclusive lower edge of the window
  int64_t requests = 0;
  int64_t errors = 0;
  int64_t cache_hits = 0;
  int64_t shed = 0;
  double sum_us = 0.0;
  std::vector<int64_t> buckets;
};

/// Interpolated quantile over fixed-bound bucket counts. The value inside a
/// bucket is assumed uniform between its edges; the overflow bucket reports
/// the last finite bound (there is no honest upper edge to interpolate to).
double BucketQuantile(const std::vector<double>& bounds,
                      const std::vector<int64_t>& buckets, int64_t total,
                      double q) {
  if (total <= 0) return 0.0;
  const double target = q * static_cast<double>(total);
  double cum = 0.0;
  for (size_t i = 0; i < buckets.size(); ++i) {
    const double next = cum + static_cast<double>(buckets[i]);
    if (next >= target && buckets[i] > 0) {
      if (i >= bounds.size()) return bounds.empty() ? 0.0 : bounds.back();
      const double lo = (i == 0) ? 0.0 : bounds[i - 1];
      const double hi = bounds[i];
      const double frac = (target - cum) / static_cast<double>(buckets[i]);
      return lo + (hi - lo) * std::clamp(frac, 0.0, 1.0);
    }
    cum = next;
  }
  return bounds.empty() ? 0.0 : bounds.back();
}

}  // namespace

const WindowStats& WindowSnapshot::Closest(double seconds) const {
  static const WindowStats kEmpty;
  const WindowStats* best = &kEmpty;
  double best_gap = -1.0;
  for (const WindowStats& w : windows) {
    const double gap = std::abs(w.window_seconds - seconds);
    if (best_gap < 0.0 || gap < best_gap) {
      best_gap = gap;
      best = &w;
    }
  }
  return *best;
}

void WindowSnapshot::WriteJson(JsonWriter* w) const {
  w->BeginObject();
  w->Key("now_ns").Int(now_ns);
  w->Key("windows").BeginArray();
  for (const WindowStats& s : windows) {
    w->BeginObject();
    w->Key("seconds").Number(s.window_seconds);
    w->Key("requests").Int(s.requests);
    w->Key("errors").Int(s.errors);
    w->Key("cache_hits").Int(s.cache_hits);
    w->Key("shed").Int(s.shed);
    w->Key("qps").Number(s.qps);
    w->Key("mean_us").Number(s.mean_us);
    w->Key("p50_us").Number(s.p50_us);
    w->Key("p95_us").Number(s.p95_us);
    w->Key("p99_us").Number(s.p99_us);
    w->Key("error_rate").Number(s.error_rate);
    w->Key("cache_hit_rate").Number(s.cache_hit_rate);
    w->Key("shed_rate").Number(s.shed_rate);
    w->EndObject();
  }
  w->EndArray();
  w->EndObject();
}

WindowedAggregator::WindowedAggregator(WindowOptions options,
                                       int64_t start_ns)
    : options_(std::move(options)), start_ns_(start_ns) {
  SUBREC_CHECK(options_.slice_ns > 0);
  SUBREC_CHECK(options_.num_slices > 0);
  SUBREC_CHECK(options_.num_stripes > 0);
  if (options_.latency_bounds_us.empty()) {
    options_.latency_bounds_us = DefaultLatencyBoundsUs();
  }
  SUBREC_CHECK(
      std::is_sorted(options_.latency_bounds_us.begin(),
                     options_.latency_bounds_us.end()));
  if (options_.window_ns.empty()) options_.window_ns = DefaultWindowsNs();
  for (int64_t w : options_.window_ns) {
    SUBREC_CHECK(w > 0 && w % options_.slice_ns == 0);
    SUBREC_CHECK(static_cast<size_t>(w / options_.slice_ns) <=
                 options_.num_slices);
  }
  stripes_.reserve(options_.num_stripes);
  const size_t num_buckets = options_.latency_bounds_us.size() + 1;
  for (size_t s = 0; s < options_.num_stripes; ++s) {
    auto stripe = std::make_unique<Stripe>();
    common::MutexLock lock(&stripe->mu);
    stripe->slices.resize(options_.num_slices);
    for (Slice& slice : stripe->slices) slice.buckets.assign(num_buckets, 0);
    stripes_.push_back(std::move(stripe));
  }
}

size_t WindowedAggregator::BucketFor(double latency_us) const {
  const std::vector<double>& bounds = options_.latency_bounds_us;
  return static_cast<size_t>(
      std::lower_bound(bounds.begin(), bounds.end(), latency_us) -
      bounds.begin());
}

void WindowedAggregator::Record(int64_t now_ns, double latency_us, bool error,
                                bool cache_hit, bool shed) {
  if (now_ns < 0) now_ns = 0;
  const int64_t epoch = now_ns / options_.slice_ns;
  Stripe& stripe =
      *stripes_[static_cast<size_t>(DenseThreadId()) % stripes_.size()];
  common::MutexLock lock(&stripe.mu);
  Slice& slice =
      stripe.slices[static_cast<size_t>(epoch) % stripe.slices.size()];
  if (slice.epoch != epoch) {
    // The ring wrapped (or this slot was never written): retire the stale
    // slice in place. The bucket vector is reused, so this never allocates.
    slice.epoch = epoch;
    slice.requests = 0;
    slice.errors = 0;
    slice.cache_hits = 0;
    slice.shed = 0;
    slice.sum_us = 0.0;
    std::fill(slice.buckets.begin(), slice.buckets.end(), int64_t{0});
  }
  slice.requests += 1;
  if (error) slice.errors += 1;
  if (cache_hit) slice.cache_hits += 1;
  if (shed) slice.shed += 1;
  slice.sum_us += latency_us;
  slice.buckets[BucketFor(latency_us)] += 1;
}

WindowSnapshot WindowedAggregator::Snapshot(int64_t now_ns) const {
  if (now_ns < 0) now_ns = 0;
  const int64_t cur_epoch = now_ns / options_.slice_ns;
  const size_t num_buckets = options_.latency_bounds_us.size() + 1;

  std::vector<Merged> merged(options_.window_ns.size());
  for (size_t w = 0; w < merged.size(); ++w) {
    const int64_t span = options_.window_ns[w] / options_.slice_ns;
    merged[w].first_epoch = cur_epoch - span + 1;
    merged[w].buckets.assign(num_buckets, 0);
  }

  for (const std::unique_ptr<Stripe>& stripe : stripes_) {
    common::MutexLock lock(&stripe->mu);
    for (const Slice& slice : stripe->slices) {
      if (slice.epoch < 0 || slice.epoch > cur_epoch) continue;
      for (Merged& m : merged) {
        if (slice.epoch < m.first_epoch) continue;
        m.requests += slice.requests;
        m.errors += slice.errors;
        m.cache_hits += slice.cache_hits;
        m.shed += slice.shed;
        m.sum_us += slice.sum_us;
        for (size_t b = 0; b < num_buckets; ++b) {
          m.buckets[b] += slice.buckets[b];
        }
      }
    }
  }

  WindowSnapshot snap;
  snap.now_ns = now_ns;
  snap.windows.resize(merged.size());
  for (size_t w = 0; w < merged.size(); ++w) {
    const Merged& m = merged[w];
    WindowStats& s = snap.windows[w];
    s.window_seconds =
        static_cast<double>(options_.window_ns[w]) / 1e9;
    s.requests = m.requests;
    s.errors = m.errors;
    s.cache_hits = m.cache_hits;
    s.shed = m.shed;
    // A window longer than the uptime has only seen the uptime's traffic.
    const int64_t covered_ns = std::min(options_.window_ns[w],
                                        now_ns - start_ns_);
    s.qps = covered_ns > 0 ? static_cast<double>(m.requests) /
                                 (static_cast<double>(covered_ns) / 1e9)
                           : 0.0;
    if (m.requests > 0) {
      const double n = static_cast<double>(m.requests);
      s.mean_us = m.sum_us / n;
      s.error_rate = static_cast<double>(m.errors) / n;
      s.cache_hit_rate = static_cast<double>(m.cache_hits) / n;
      s.shed_rate = static_cast<double>(m.shed) / n;
    }
    s.p50_us = BucketQuantile(options_.latency_bounds_us, m.buckets,
                              m.requests, 0.50);
    s.p95_us = BucketQuantile(options_.latency_bounds_us, m.buckets,
                              m.requests, 0.95);
    s.p99_us = BucketQuantile(options_.latency_bounds_us, m.buckets,
                              m.requests, 0.99);
  }
  return snap;
}

}  // namespace subrec::obs
