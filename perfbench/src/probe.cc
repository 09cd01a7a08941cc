#include "probe.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>

#include "obs/trace.h"

namespace perfbench {

std::atomic<bool> g_count_allocs{false};
std::atomic<int64_t> g_allocs{0};

int64_t NowNs() { return subrec::obs::NowNs(); }

double SecondsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e9;
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double RssMb() {
  // /proc/self/statm: size resident shared ... in pages.
  std::ifstream statm("/proc/self/statm");
  long size = 0, resident = 0;
  if (!(statm >> size >> resident)) return 0.0;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KB on Linux
}

namespace {
thread_local std::vector<int32_t> t_open_spans;
}  // namespace

SpanLog& SpanLog::Global() {
  static SpanLog* const log = new SpanLog();
  return *log;
}

int32_t SpanLog::Open(const char* name) {
  if (!enabled()) return -1;
  const int32_t parent = t_open_spans.empty() ? -1 : t_open_spans.back();
  int32_t index = 0;
  {
    subrec::common::MutexLock lock(&mu_);
    index = static_cast<int32_t>(spans_.size());
    spans_.push_back({name, NowNs(), 0, parent, -1});
  }
  t_open_spans.push_back(index);
  return index;
}

void SpanLog::Close(int32_t index) {
  if (index < 0) return;
  const int64_t end = NowNs();
  if (!t_open_spans.empty() && t_open_spans.back() == index)
    t_open_spans.pop_back();
  subrec::common::MutexLock lock(&mu_);
  spans_[static_cast<size_t>(index)].end_ns = end;
}

void SpanLog::Add(const char* name, int64_t start_ns, int64_t end_ns,
                  int32_t parent, int64_t request_id) {
  if (!enabled()) return;
  subrec::common::MutexLock lock(&mu_);
  spans_.push_back({name, start_ns, end_ns, parent, request_id});
}

std::map<std::string, double> SpanLog::SelfSeconds() const {
  subrec::common::MutexLock lock(&mu_);
  // Children of one parent may overlap (concurrent requests), so the part
  // of the parent they cover is the union of their intervals.
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
      spans_.size());
  for (const SpanRecord& s : spans_)
    if (s.parent >= 0)
      children[static_cast<size_t>(s.parent)].push_back(
          {s.start_ns, s.end_ns});
  std::map<std::string, double> self;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0, cursor = s.start_ns;
    for (auto [a, b] : kids) {
      a = std::max(a, cursor);
      b = std::min(b, s.end_ns);
      if (b > a) {
        covered += b - a;
        cursor = b;
      }
    }
    self[s.name] +=
        static_cast<double>(s.end_ns - s.start_ns - covered) / 1e9;
  }
  return self;
}

bool SpanLog::WriteJson(const std::string& path) const {
  const std::map<std::string, double> self = SelfSeconds();
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "{\"self_seconds\": {");
  bool first = true;
  for (const auto& [name, seconds] : self) {
    std::fprintf(out, "%s\"%s\": %.9f", first ? "" : ", ", name.c_str(),
                 seconds);
    first = false;
  }
  std::fprintf(out, "},\n\"spans\": [\n");
  subrec::common::MutexLock lock(&mu_);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    std::fprintf(out,
                 "%s{\"id\": %zu, \"name\": \"%s\", \"start_ns\": %lld, "
                 "\"end_ns\": %lld, \"parent\": %d, \"request\": %lld}",
                 i == 0 ? "" : ",\n", i, s.name,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent,
                 static_cast<long long>(s.request_id));
  }
  std::fprintf(out, "\n]}\n");
  return std::fclose(out) == 0;
}

Stage::Stage(Metrics* metrics, const char* stage, const char* seconds_key)
    : metrics_(metrics),
      stage_(stage),
      seconds_key_(seconds_key),
      span_(stage),
      start_ns_(NowNs()),
      start_allocs_(AllocCount()) {}

Stage::~Stage() {
  const double seconds = Elapsed();
  if (seconds_key_ != nullptr) (*metrics_)[seconds_key_] += seconds;
  if (SpanLog::Global().enabled()) {
    (*metrics_)[stage_ + ".allocs"] +=
        static_cast<double>(AllocCount() - start_allocs_);
    (*metrics_)[stage_ + ".rss_mb"] = RssMb();
  }
}

}  // namespace perfbench
