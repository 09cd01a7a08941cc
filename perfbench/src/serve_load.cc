#include "serve_load.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <future>
#include <limits>
#include <memory>
#include <optional>
#include <thread>
#include <unordered_set>
#include <utility>

#include "ann/hnsw_index.h"
#include "common/check.h"
#include "common/file_util.h"
#include "logic.h"
#include "obs/metrics.h"
#include "par/parallel.h"
#include "serve_world.h"

namespace perfbench {
namespace {

using subrec::serve::RecommendService;
using subrec::serve::RecRequest;
using subrec::serve::RecResponse;
using subrec::serve::RetrievalMode;
using subrec::serve::ScoredPaper;
using subrec::serve::ServingState;
using subrec::serve::SnapshotData;

/// How long before a due time the generator stops sleeping and spins.
constexpr int64_t kSpinNs = 100'000;
/// Recommendations per request.
constexpr int kTopN = 10;
/// A ladder step's p99 is the median over consecutive windows of the
/// window's p99; a window lasts 0.5 s, or long enough for 1000 requests
/// (ten beyond the p99) at lower rates.
constexpr double kWindowSeconds = 0.5;
constexpr double kWindowRequests = 1000;
/// Served responses of the fixed-rate slices checked against the reference.
constexpr int kCheckResponses = 200;
/// Users whose served top-20 is compared with the brute-force exact ranking
/// over every in-window new paper (recall10, graded nDCG).
constexpr size_t kCheckUsers = 512;
/// Served scores must match the reference scorer within this absolute error.
constexpr double kScoreTolerance = 1e-9;
/// par threads for the brute-force checks, which run after the load phases.
constexpr size_t kCheckThreads = 4;

/// One open-loop phase as the generator saw it, in due order.
struct PhaseLog {
  double rate = 0.0;
  int64_t start_ns = 0;
  int64_t last_due_ns = 0;
  std::vector<int64_t> due;
  std::vector<int64_t> done;
  std::vector<int32_t> users;
  std::vector<uint8_t> ok;
  std::vector<double> lag_ms;
  int64_t failed = 0;
  /// (user, served list) of every sample_every-th request.
  std::vector<std::pair<int32_t, std::vector<ScoredPaper>>> samples;
};

/// Reload timings of one thread, merged into the run's metrics after join.
struct ReloadLog {
  std::vector<double> seconds;
  std::vector<int64_t> swap_ns;
  int64_t failed = 0;
  Metrics layers;
};

/// LoadSnapshotFile's steps through their own public functions, each timed
/// as a stage: read the file, parse it, build the serving state, swap.
subrec::Status TracedLoad(RecommendService* service, const std::string& path,
                          Metrics* layers) {
  SnapshotData data;
  {
    std::string bytes;
    {
      Stage stage(layers, "serve.snapshot_read", "serve.snapshot_read_s");
      SUBREC_ASSIGN_OR_RETURN(bytes, subrec::ReadFileToString(path));
    }
    Stage stage(layers, "serve.snapshot_parse", "serve.snapshot_parse_s");
    SUBREC_ASSIGN_OR_RETURN(data, subrec::serve::SnapshotReader::Parse(bytes));
  }
  std::shared_ptr<const ServingState> state;
  {
    Stage stage(layers, "serve.state_build", "serve.state_build_s");
    SUBREC_ASSIGN_OR_RETURN(
        state, ServingState::FromSnapshot(std::move(data),
                                          service->options().index));
  }
  Stage stage(layers, "serve.swap", "serve.swap_s");
  service->Swap(std::move(state));
  return subrec::Status::Ok();
}

/// Re-loads the snapshot into the service: the public LoadSnapshotFile in
/// the untraced run, its timed steps in the traced run.
void Reload(RecommendService* service, const std::string& path, bool trace,
            ReloadLog* log) {
  Span span("serve.reload");
  const int64_t start = NowNs();
  const subrec::Status status = trace
                                    ? TracedLoad(service, path, &log->layers)
                                    : service->LoadSnapshotFile(path);
  log->swap_ns.push_back(NowNs());
  log->seconds.push_back(SecondsSince(start));
  if (!status.ok()) {
    ++log->failed;
    std::fprintf(stderr, "reload failed: %s\n", status.ToString().c_str());
  }
}

/// Sends round(rate * seconds) requests, each at its due time on a fixed
/// schedule (open loop: a slow service does not slow the sender), then
/// collects every response. Latency is taken from the due time, so a
/// generator stall counts against the requests it delayed.
///
/// Every request gets the next id from `next_request_id`; in the traced run
/// each sampled request is recorded as a "request" span (due time to done,
/// carrying its id) under the span `parent_span`.
PhaseLog RunOpenLoop(RecommendService* service, ZipfSampler* sampler,
                     const std::vector<int32_t>& servable, double rate,
                     double seconds, int n, size_t sample_every,
                     int32_t parent_span, int64_t* next_request_id) {
  PhaseLog log;
  log.rate = rate;
  const auto count = static_cast<size_t>(std::llround(rate * seconds));
  const double gap_ns = 1e9 / rate;
  log.due.resize(count);
  log.done.resize(count);
  log.users.resize(count);
  log.ok.resize(count);
  log.lag_ms.resize(count);
  for (int32_t& u : log.users)
    u = servable[static_cast<size_t>(sampler->Next())];
  std::vector<std::future<std::vector<RecResponse>>> futures;
  futures.reserve(count);

  log.start_ns = NowNs() + 2'000'000;
  for (size_t i = 0; i < count; ++i) {
    const int64_t due =
        log.start_ns + static_cast<int64_t>(static_cast<double>(i) * gap_ns);
    log.due[i] = due;
    // Sleep through most of the gap and spin only its last stretch, so the
    // generator leaves its core to the workers between sends.
    int64_t now = NowNs();
    if (due - now > kSpinNs)
      std::this_thread::sleep_for(std::chrono::nanoseconds(due - now - kSpinNs));
    while (now < due) now = NowNs();
    log.lag_ms[i] = static_cast<double>(now - due) / 1e6;
    futures.push_back(service->SubmitBatch({RecRequest{log.users[i], n}}));
  }
  log.last_due_ns = count > 0 ? log.due.back() : log.start_ns;
  for (size_t i = 0; i < count; ++i) {
    std::vector<RecResponse> out = futures[i].get();
    const bool ok = out.size() == 1 && out[0].status.ok() &&
                    !out[0].items.empty();
    log.ok[i] = ok ? 1 : 0;
    log.done[i] = out.empty() ? NowNs() : out[0].done_ns;
    if (!ok) ++log.failed;
    if (i % sample_every == 0) {
      SpanLog::Global().Add("request", log.due[i], log.done[i], parent_span,
                            *next_request_id + static_cast<int64_t>(i));
      if (ok) log.samples.emplace_back(log.users[i], std::move(out[0].items));
    }
  }
  *next_request_id += static_cast<int64_t>(count);
  return log;
}

/// Reloads the snapshot back to back on its own thread for as long as it
/// lives.
class BackgroundReloader {
 public:
  BackgroundReloader(RecommendService* service, const std::string& path,
                     bool trace, ReloadLog* log)
      : thread_([=, this] {
          while (!stop_.load()) Reload(service, path, trace, log);
        }) {}
  /// Lets the reload in progress finish, then joins.
  ~BackgroundReloader() {
    stop_.store(true);
    thread_.join();
  }
  BackgroundReloader(const BackgroundReloader&) = delete;
  BackgroundReloader& operator=(const BackgroundReloader&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

/// Latencies from due time in ms (due order), failures as +infinity.
std::vector<double> Latencies(const PhaseLog& log) {
  std::vector<double> ms(log.due.size());
  for (size_t i = 0; i < ms.size(); ++i)
    ms[i] = log.ok[i] != 0 ? static_cast<double>(log.done[i] - log.due[i]) / 1e6
                           : std::numeric_limits<double>::infinity();
  return ms;
}

std::vector<double> Sorted(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v;
}

LadderStep Summarize(const PhaseLog& log, double limit_ms) {
  LadderStep step;
  step.rate = log.rate;
  step.sent = static_cast<int64_t>(log.due.size());
  step.failed = log.failed;
  const double window_s = std::max(kWindowSeconds, kWindowRequests / log.rate);
  step.p99_ms = MedianWindowPercentile(log.due, Latencies(log), log.start_ns,
                                       static_cast<int64_t>(window_s * 1e9),
                                       0.99);
  int64_t last_done = log.start_ns;
  for (int64_t d : log.done) last_done = std::max(last_done, d);
  const double wall = static_cast<double>(last_done - log.start_ns) / 1e9;
  step.achieved_qps =
      wall > 0 ? static_cast<double>(step.sent - step.failed) / wall : 0.0;
  step.backlog = BacklogGrowing(log.due, log.done, log.start_ns,
                                log.last_due_ns, log.rate, limit_ms);
  return step;
}

/// Mean of the profile's interest rows: the query CandidateIndex issues.
std::vector<double> ProfileQuery(const SnapshotData& data,
                                 const std::vector<int32_t>& profile) {
  const size_t dim = data.interest.cols();
  std::vector<double> query(dim, 0.0);
  for (int32_t p : profile) {
    const double* row = data.interest.row_data(static_cast<size_t>(p));
    for (size_t d = 0; d < dim; ++d) query[d] += row[d];
  }
  for (double& q : query) q /= static_cast<double>(profile.size());
  return query;
}

std::vector<Ranked> ToRanked(const std::vector<ScoredPaper>& items) {
  std::vector<Ranked> out(items.size());
  for (size_t i = 0; i < items.size(); ++i)
    out[i] = {items[i].paper, items[i].score};
  return out;
}

}  // namespace

void RunServePhases(const std::string& snapshot_path,
                    const SnapshotData& reference, const ServePlan& plan,
                    uint64_t seed, bool trace, Metrics* metrics,
                    Tally* tally) {
  Metrics& m = *metrics;
  const bool ann = plan.service.index.retrieval == RetrievalMode::kAnnEmbedding;
  subrec::serve::ServeOptions options = plan.service;
  options.index.prune_topics = !plan.full_pool;
  options.index.filter_disciplines = !plan.full_pool;
  // Serving runs with library parallel regions inline on their caller, so
  // the workers, the generator and the reload thread are all the threads
  // that run (reloads included).
  subrec::par::ScopedNumThreads serial(1);
  RecommendService service(options);
  ReloadLog reloads;
  Reload(&service, snapshot_path, trace, &reloads);
  tally->attempted += 1;
  tally->failed += reloads.failed;
  if (reloads.failed > 0) return;
  const double first_load_s = reloads.seconds.front();
  reloads.seconds.clear();

  // Only the servable user list is taken from the first generation; no
  // serving state stays pinned while later reloads replace it.
  std::vector<int32_t> servable;
  {
    const std::shared_ptr<const ServingState> first = service.state();
    for (size_t u = 0; u < first->profiles.size(); ++u)
      if (!first->profiles[u].empty())
        servable.push_back(static_cast<int32_t>(u));
  }
  SUBREC_CHECK(!servable.empty()) << "snapshot has no servable users";
  ZipfSampler sampler(servable.size(), plan.zipf_s, seed ^ 0x51A7E5ULL);

  // Sampling stride so the fixed-rate slices yield about kCheckResponses
  // responses for the reference check.
  const double planned = plan.fixed_rate * plan.slice_seconds * plan.slices;
  const size_t sample_every =
      std::max<size_t>(1, static_cast<size_t>(planned / kCheckResponses));

  // Fixed-rate slices alternate with ladder steps, so the slices spread over
  // the whole serving period and one burst of host noise reaches only some
  // of them; after the ladder ends the remaining slices run back to back.
  const int64_t hits0 = service.cache_hits();
  const int64_t misses0 = service.cache_misses();
  std::vector<PhaseLog> slices, ladder_logs;
  std::vector<LadderStep> steps;
  bool ladder_done = plan.ladder.empty();
  int64_t next_request_id = 0;
  // Ladder steps sample one request in this many for the reference check
  // and the trace.
  const size_t ladder_sample_every = 1000;
  {
    std::optional<BackgroundReloader> reloader;
    if (plan.reload_under_load)
      reloader.emplace(&service, snapshot_path, trace, &reloads);
    for (int i = 0; i < plan.slices; ++i) {
      {
        Stage stage(&m, "loadgen.fixed", nullptr);
        slices.push_back(RunOpenLoop(&service, &sampler, servable,
                                     plan.fixed_rate, plan.slice_seconds,
                                     kTopN, sample_every, stage.span_index(),
                                     &next_request_id));
      }
      const bool last_slice = i + 1 == plan.slices;
      while (!ladder_done && (steps.size() <= static_cast<size_t>(i) ||
                              last_slice)) {
        Stage stage(&m, "loadgen.ladder", nullptr);
        const double rate = plan.ladder[steps.size()];
        ladder_logs.push_back(RunOpenLoop(
            &service, &sampler, servable, rate, plan.step_seconds, kTopN,
            ladder_sample_every, stage.span_index(), &next_request_id));
        const LadderStep step = Summarize(ladder_logs.back(), kLatencyLimitMs);
        std::vector<double> lags = ladder_logs.back().lag_ms;
        std::sort(lags.begin(), lags.end());
        std::printf("  ladder %8.0f/s: p99 %8.3f ms achieved %8.0f/s "
                    "lag p99 %.3f ms%s%s\n",
                    rate, step.p99_ms, step.achieved_qps,
                    NearestRank(lags, 0.99), step.backlog ? " backlog" : "",
                    StepPasses(step, kLatencyLimitMs) ? "" : " MISS");
        steps.push_back(step);
        ladder_done = LadderEnded(steps, kLatencyLimitMs) ||
                      steps.size() == plan.ladder.size();
      }
    }
  }
  const int64_t hits = service.cache_hits() - hits0;
  const int64_t lookups = hits + service.cache_misses() - misses0;

  // Open-loop latency at the fixed rate: the median over slices of each
  // slice's p50 and p99 (each slice has at least ten samples beyond its
  // p99), and the highest reportable percentile of the pooled distribution.
  std::vector<double> slice_p50, slice_p99, pooled;
  int64_t fixed_failed = 0;
  for (const PhaseLog& slice : slices) {
    const std::vector<double> ms = Sorted(Latencies(slice));
    slice_p50.push_back(NearestRank(ms, 0.50));
    if (SamplesBeyond(static_cast<int64_t>(ms.size()), 0.99) >= 10)
      slice_p99.push_back(NearestRank(ms, 0.99));
    pooled.insert(pooled.end(), ms.begin(), ms.end());
    fixed_failed += slice.failed;
  }
  std::sort(pooled.begin(), pooled.end());
  const auto fixed_n = static_cast<int64_t>(pooled.size());
  const double tail_q = HighestReportablePercentile(fixed_n);
  m["loadgen.fixed.p50_ms"] = Median(slice_p50);
  m["loadgen.fixed.p99_ms"] = Median(slice_p99);
  m["loadgen.fixed.tail_q"] = tail_q;
  m["loadgen.fixed.tail_ms"] = NearestRank(pooled, tail_q);
  m["loadgen.fixed.sent"] = static_cast<double>(fixed_n);
  m["loadgen.fixed.failed"] = static_cast<double>(fixed_failed);
  m["loadgen.fixed.succeeded"] = static_cast<double>(fixed_n - fixed_failed);
  if (slice_p99.size() != slices.size()) {
    std::fprintf(stderr, "fixed-rate slices too short for a p99\n");
    tally->failed += 1;
  }
  int64_t ladder_sent = 0, ladder_failed = 0;
  for (const PhaseLog& log : ladder_logs) {
    ladder_sent += static_cast<int64_t>(log.due.size());
    ladder_failed += log.failed;
  }
  const int knee = LadderKnee(steps, kLatencyLimitMs);
  m["loadgen.capacity_qps"] =
      knee >= 0 ? steps[static_cast<size_t>(knee)].achieved_qps : 0.0;
  m["loadgen.ladder.sent"] = static_cast<double>(ladder_sent);
  m["loadgen.ladder.failed"] = static_cast<double>(ladder_failed);
  m["loadgen.ladder.succeeded"] =
      static_cast<double>(ladder_sent - ladder_failed);

  {
    Span span("serve.idle_reloads");
    for (int i = 0; i < plan.idle_reloads; ++i)
      Reload(&service, snapshot_path, trace, &reloads);
  }
  // Every reload has joined: the current generation serves the checks.
  const std::shared_ptr<const ServingState> state = service.state();
  const auto reload_count = static_cast<int64_t>(reloads.seconds.size());
  tally->attempted += reload_count;
  tally->failed += reloads.failed;
  m["reload_s"] = Median(reloads.seconds);
  m["serve.reloads"] = static_cast<double>(reload_count);
  m["serve.first_load_s"] = first_load_s;
  for (const auto& [key, value] : reloads.layers) {
    // Per-reload means (the first load included) for the timed steps and
    // allocation counts; RSS as last read.
    const bool seconds = key.size() > 2 && key.compare(key.size() - 2, 2, "_s") == 0;
    const double per = seconds || key.find(".allocs") != std::string::npos
                           ? value / static_cast<double>(reload_count + 1)
                           : value;
    m[key] = per;
  }

  // Request accounting, generator lag, and the exact-LRU bound on the same
  // stream (in due order, emptied at every swap like the service's cache).
  std::vector<double> lags;
  std::vector<uint64_t> keys;
  std::vector<uint8_t> clear_before;
  std::vector<int64_t> swaps = reloads.swap_ns;
  std::sort(swaps.begin(), swaps.end());
  size_t next_swap = 0;
  double candidates_total = 0.0;
  // Slices and ladder steps interleave in time; replay them in due order.
  std::vector<const PhaseLog*> phases;
  for (const PhaseLog& log : slices) phases.push_back(&log);
  for (const PhaseLog& log : ladder_logs) phases.push_back(&log);
  std::sort(phases.begin(), phases.end(),
            [](const PhaseLog* a, const PhaseLog* b) {
              return a->start_ns < b->start_ns;
            });
  for (const PhaseLog* phase_ptr : phases) {
    const PhaseLog& phase = *phase_ptr;
    tally->attempted += static_cast<int64_t>(phase.due.size());
    tally->failed += phase.failed;
    lags.insert(lags.end(), phase.lag_ms.begin(), phase.lag_ms.end());
    for (size_t i = 0; i < phase.due.size(); ++i) {
      uint8_t clear = 0;
      while (next_swap < swaps.size() && swaps[next_swap] <= phase.due[i]) {
        clear = 1;
        ++next_swap;
      }
      clear_before.push_back(clear);
      keys.push_back(static_cast<uint64_t>(phase.users[i]));
      candidates_total += static_cast<double>(
          state->index.CandidatesFor(phase.users[i]).size());
    }
  }
  std::sort(lags.begin(), lags.end());
  m["loadgen.lag_p99_ms"] = NearestRank(lags, 0.99);
  m["serve.candidates_mean"] =
      keys.empty() ? 0.0 : candidates_total / static_cast<double>(keys.size());
  m["serve.cache.hit_ratio"] =
      lookups > 0 ? static_cast<double>(hits) / static_cast<double>(lookups)
                  : 0.0;
  const int64_t bound_hits =
      ExactLruHits(keys, plan.service.cache_capacity, clear_before);
  m["serve.cache.lru_bound_hit_ratio"] =
      keys.empty() ? 0.0
                   : static_cast<double>(bound_hits) /
                         static_cast<double>(keys.size());

  // Check sampled responses against the reference scorer. The candidate
  // list is recomputed from the documented filter rule; under ANN
  // retrieval it is the index's own list, whose members must all be
  // in-window new papers.
  const std::vector<int32_t> new_papers =
      NewPapers(reference, state->split_year);
  const std::unordered_set<int32_t> new_set(new_papers.begin(),
                                            new_papers.end());
  const size_t dim = reference.interest.cols();
  const double* interest = reference.interest.row_data(0);
  const double* influence = reference.influence.row_data(0);
  auto candidates_for = [&](int32_t user) {
    if (!ann) {
      return plan.full_pool
                 ? new_papers
                 : FilteredCandidates(
                       reference, new_papers,
                       reference.profiles[static_cast<size_t>(user)]);
    }
    return state->index.CandidatesFor(user);
  };
  int64_t checked = 0, mismatches = 0;
  for (const PhaseLog* phase : phases) {
    for (const auto& [user, items] : phase->samples) {
      const std::vector<int32_t> cands = candidates_for(user);
      bool ok = true;
      for (int32_t c : cands) ok = ok && new_set.count(c) > 0;
      const std::vector<double> ref = ReferenceScores(
          interest, influence, dim,
          reference.profiles[static_cast<size_t>(user)], cands);
      ok = ok && VerifyTopN(cands, ref, ToRanked(items),
                            static_cast<size_t>(kTopN),
                            kScoreTolerance);
      ++checked;
      if (!ok) ++mismatches;
    }
  }

  // Brute force: served top-20 against the exact top-20 over every
  // in-window new paper, for a seeded sample of users.
  std::vector<int32_t> check_users;
  {
    ZipfSampler pick(servable.size(), 0.0, seed ^ 0xC4EC6ULL);
    std::unordered_set<int32_t> seen;
    const size_t want =
        std::min(servable.size(), kCheckUsers);
    while (check_users.size() < want) {
      const int32_t u = servable[static_cast<size_t>(pick.Next())];
      if (seen.insert(u).second) check_users.push_back(u);
    }
  }
  std::vector<double> recall(check_users.size()), ndcg(check_users.size());
  std::vector<uint8_t> ok(check_users.size(), 0);
  {
    subrec::par::ScopedNumThreads checks(kCheckThreads);
    subrec::par::ParallelFor(
        check_users.size(), 1, [&](size_t begin, size_t end) {
          for (size_t i = begin; i < end; ++i) {
            const int32_t user = check_users[i];
            const auto& profile = reference.profiles[static_cast<size_t>(user)];
            const std::vector<double> all = ReferenceScores(
                interest, influence, dim, profile, new_papers);
            const std::vector<Ranked> exact = ExactTopN(new_papers, all, 20);
            const RecResponse served = service.TopN(user, 20);
            if (!served.status.ok()) continue;
            const std::vector<int32_t> cands = candidates_for(user);
            const std::vector<double> ref =
                ReferenceScores(interest, influence, dim, profile, cands);
            std::vector<Ranked> ranked = ToRanked(served.items);
            if (!VerifyTopN(cands, ref, ranked, 20, kScoreTolerance))
              continue;
            std::vector<Ranked> top10(ranked.begin(),
                                      ranked.begin() + std::min<size_t>(
                                                           10, ranked.size()));
            recall[i] = RecallAt(
                top10, std::vector<Ranked>(exact.begin(),
                                           exact.begin() + std::min<size_t>(
                                                               10, exact.size())));
            ndcg[i] = GradedNdcg(ranked, exact);
            ok[i] = 1;
          }
        });
  }
  double recall_sum = 0.0, ndcg_sum = 0.0;
  for (size_t i = 0; i < check_users.size(); ++i) {
    ++checked;
    if (ok[i] == 0) ++mismatches;
    recall_sum += recall[i];
    ndcg_sum += ndcg[i];
  }
  const auto users_checked = static_cast<double>(check_users.size());
  m["recall10"] = users_checked > 0 ? recall_sum / users_checked : 0.0;
  m["serve_ndcg20"] = users_checked > 0 ? ndcg_sum / users_checked : 0.0;
  m["check.responses"] = static_cast<double>(checked);
  m["check.mismatches"] = static_cast<double>(mismatches);
  tally->attempted += checked;
  tally->failed += mismatches;
  if (mismatches > 0)
    std::fprintf(stderr, "%lld of %lld served responses disagree with the "
                 "reference scorer\n", static_cast<long long>(mismatches),
                 static_cast<long long>(checked));

  if (!trace) return;
  // Direct layer timings at sampled request shapes.
  std::vector<double> score_us, search_us;
  std::vector<ScoredPaper> out;
  for (size_t i = 0; i < std::min<size_t>(keys.size(), 2000); i += 4) {
    const auto user = static_cast<int32_t>(keys[i]);
    const auto& profile = state->profiles[static_cast<size_t>(user)];
    const auto& cands = state->index.CandidatesFor(user);
    const int64_t t0 = NowNs();
    state->scorer.TopNInto(profile, cands, kTopN,
                           subrec::serve::ScorerMode::kGemm, nullptr, nullptr,
                           &out);
    score_us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
    if (state->ann_index != nullptr) {
      const std::vector<double> query = ProfileQuery(reference, profile);
      std::vector<subrec::ann::Neighbor> hits;
      const int k = plan.service.index.ann_candidates;
      const int ef = std::max(plan.service.index.ann_ef, k);
      const int64_t s0 = NowNs();
      const subrec::Status st = state->ann_index->Search(query, k, ef, &hits);
      search_us.push_back(static_cast<double>(NowNs() - s0) / 1e3);
      SUBREC_CHECK(st.ok()) << st.ToString();
    }
  }
  m["serve.score_us"] = Median(score_us);
  m["ann.search_us"] = Median(search_us);
  if (!reference.ann_index.empty()) {
    Stage stage(&m, "ann.deserialize", "ann.deserialize_s");
    auto index = subrec::ann::HnswIndex::Deserialize(reference.ann_index);
    SUBREC_CHECK(index.ok()) << index.status().ToString();
  }
  const subrec::obs::MetricsSnapshot snap =
      subrec::obs::MetricsRegistry::Global().Snapshot();
  auto it = snap.counters.find("ann.queries");
  m["ann.queries"] =
      it == snap.counters.end() ? 0.0 : static_cast<double>(it->second);
}

}  // namespace perfbench
