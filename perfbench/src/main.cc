// perfbench: runs one workload from a seed and prints its metrics. The last
// line of standard output is
//
//   PERFBENCH {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// with every metric the run measured; run.py selects and labels the ones
// BENCHMARK.json lists. Exits 1 when any operation or check failed.
//
//   perfbench --workload serve_filtered --seed 3 --workdir DIR [plan flags]

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.h"
#include "probe.h"
#include "workloads.h"

namespace {

using perfbench::RunConfig;

[[noreturn]] void Usage(const std::string& why) {
  std::fprintf(stderr, "perfbench: %s\n", why.c_str());
  std::exit(2);
}

std::vector<double> ParseList(const std::string& text) {
  std::vector<double> out;
  size_t start = 0;
  while (start < text.size()) {
    size_t end = text.find(',', start);
    if (end == std::string::npos) end = text.size();
    out.push_back(std::stod(text.substr(start, end - start)));
    start = end + 1;
  }
  return out;
}

RunConfig ParseArgs(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0 || i + 1 >= argc)
      Usage("expected --flag value pairs, got " + arg);
    flags[arg.substr(2)] = argv[++i];
  }
  auto take = [&](const char* name) -> std::string {
    auto it = flags.find(name);
    if (it == flags.end()) Usage(std::string("missing --") + name);
    std::string value = it->second;
    flags.erase(it);
    return value;
  };
  auto number = [&](const char* name) { return std::stod(take(name)); };

  RunConfig c;
  c.workload = take("workload");
  c.seed = std::stoull(take("seed"));
  c.trace = number("trace") != 0.0;
  c.workdir = take("workdir");
  c.setup_repeats = static_cast<int>(number("setup-repeats"));
  perfbench::ServePlan& p = c.plan;
  p.service.num_threads = static_cast<size_t>(number("workers"));
  p.service.cache_capacity = static_cast<size_t>(number("cache-capacity"));
  const std::string retrieval = take("retrieval");
  if (retrieval == "ann") {
    p.service.index.retrieval = subrec::serve::RetrievalMode::kAnnEmbedding;
  } else if (retrieval != "filtered") {
    Usage("unknown --retrieval " + retrieval);
  }
  p.zipf_s = number("zipf");
  p.fixed_rate = number("fixed-rate");
  p.slice_seconds = number("slice-seconds");
  p.slices = static_cast<int>(number("slices"));
  p.ladder = ParseList(take("ladder"));
  p.step_seconds = number("step-seconds");
  p.idle_reloads = static_cast<int>(number("idle-reloads"));
  p.reload_under_load = number("reload-under-load") != 0.0;
  if (!flags.empty()) Usage("unknown flag --" + flags.begin()->first);
  if (p.ladder.empty() || p.fixed_rate <= 0 || p.slices <= 0 ||
      p.slice_seconds <= 0 || p.step_seconds <= 0)
    Usage("the plan needs a fixed rate and a non-empty ladder");
  return c;
}

}  // namespace

int main(int argc, char** argv) {
  const RunConfig config = ParseArgs(argc, argv);
  if (config.trace) {
    perfbench::SpanLog::Global().Enable();
    perfbench::g_count_allocs.store(true);
    subrec::obs::TraceRecorder::Global().Enable();
  }

  perfbench::Metrics metrics;
  perfbench::Tally tally;
  const int64_t start = perfbench::NowNs();
  if (config.workload == "offline_fit") {
    perfbench::RunOfflineFit(config, &metrics, &tally);
  } else if (config.workload == "serve_filtered" ||
             config.workload == "serve_ann_skewed") {
    perfbench::RunServeWorkload(config, &metrics, &tally);
  } else {
    Usage("unknown workload " + config.workload);
  }
  metrics["peak_rss_mb"] = perfbench::PeakRssMb();
  metrics["run.wall_s"] = perfbench::SecondsSince(start);

  if (config.trace) {
    // Library spans (SUBREC_TRACE_SPAN) as totals beside the benchmark's own.
    for (const auto& total :
         subrec::obs::TraceRecorder::Global().AggregateTotals())
      std::printf("  lib span %-28s %10.4f s x%lld\n", total.name.c_str(),
                  static_cast<double>(total.total_ns) / 1e9,
                  static_cast<long long>(total.count));
    for (const auto& [name, seconds] :
         perfbench::SpanLog::Global().SelfSeconds())
      std::printf("  self %-32s %10.4f s\n", name.c_str(), seconds);
    const std::string path = config.workdir + "/trace_" + config.workload +
                             "_" + std::to_string(config.seed) + ".json";
    if (perfbench::SpanLog::Global().WriteJson(path))
      std::printf("  spans written to %s\n", path.c_str());
  }

  for (const auto& [name, value] : metrics)
    std::printf("  %-40s %.6g\n", name.c_str(), value);
  const bool correct = tally.failed == 0;
  std::printf("PERFBENCH {\"correct\": %s, \"attempted\": %lld, \"failed\": "
              "%lld, \"metrics\": {",
              correct ? "true" : "false",
              static_cast<long long>(tally.attempted),
              static_cast<long long>(tally.failed));
  bool first = true;
  for (const auto& [name, value] : metrics) {
    std::printf("%s\"%s\": %.17g", first ? "" : ", ", name.c_str(),
                std::isfinite(value) ? value : -1.0);
    first = false;
  }
  std::printf("}}\n");
  return correct ? 0 : 1;
}
