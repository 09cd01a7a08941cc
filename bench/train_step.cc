// Training-step throughput of the arena-backed tape: times one SEM
// twin-network fit and one NPRec fit with the pooled/recycled tape against
// the legacy allocate-per-item path (toggled via SetTapeLegacyMode in the
// same binary), at 1 thread and at the default thread count. Also proves
// the two contracts the rewrite must keep: per-epoch losses are bitwise
// identical across all paths/thread counts, and a warmed-up tape performs
// zero slab allocations across Reset/rebuild cycles. The default-thread
// arena fits are traced, and the seconds of each training phase (pair
// forward/backward, the serial rest of the gradient pull, clipping, the
// optimizer step) are reported as phase_s.<model>.<phase>.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "autodiff/tape.h"
#include "bench_common.h"
#include "datagen/split.h"
#include "la/matrix.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "par/parallel.h"
#include "rec/nprec.h"
#include "rules/rule_fusion.h"
#include "subspace/trainer.h"
#include "subspace/triplet_miner.h"
#include "subspace/twin_network.h"

namespace {

using namespace subrec;

/// One timed fit: throughput plus the evidence needed for the parity and
/// allocation checks.
struct FitRun {
  double steps_per_s = 0.0;
  std::vector<double> losses;
  int64_t tape_nodes = 0;
};

obs::Counter* NodesBuiltCounter() {
  return obs::MetricsRegistry::Global().GetCounter("tape.nodes_built");
}

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i)
    if (a[i] != b[i]) return false;
  return true;
}

// --- SEM twin network ------------------------------------------------------

FitRun RunSemFit(const bench::SemWorld& world,
                 const std::vector<subspace::Triplet>& triplets,
                 const subspace::SubspaceEncoderOptions& encoder_options,
                 int epochs, size_t threads, bool legacy) {
  autodiff::SetTapeLegacyMode(legacy);
  par::ScopedNumThreads scoped(threads);
  subspace::TwinNetwork net(encoder_options, /*seed=*/21);
  subspace::SemTrainerOptions trainer_options;
  trainer_options.epochs = epochs;

  const int64_t nodes0 = NodesBuiltCounter()->value();
  const int64_t t0 = obs::NowNs();
  auto stats =
      subspace::TrainTwinNetwork(world.features, triplets, trainer_options, &net);
  const double seconds = static_cast<double>(obs::NowNs() - t0) / 1e9;
  autodiff::SetTapeLegacyMode(false);
  SUBREC_CHECK(stats.ok()) << stats.status().ToString();

  const size_t batch = static_cast<size_t>(trainer_options.batch_size);
  const size_t steps_per_epoch = (triplets.size() + batch - 1) / batch;
  FitRun run;
  run.steps_per_s =
      static_cast<double>(epochs) * static_cast<double>(steps_per_epoch) /
      std::max(seconds, 1e-9);
  run.losses = stats.value().epoch_loss;
  run.tape_nodes = NodesBuiltCounter()->value() - nodes0;
  return run;
}

// --- NPRec -----------------------------------------------------------------

FitRun RunNPRecFit(const bench::RecWorld& world, int epochs, int max_positives,
                   size_t threads, bool legacy) {
  autodiff::SetTapeLegacyMode(legacy);
  par::ScopedNumThreads scoped(threads);
  rec::NPRecOptions options;
  options.epochs = epochs;
  options.use_raw_text_channel = true;  // exercises the per-batch raw cache
  options.sampler.max_positives = max_positives;
  rec::NPRec model(options, &world.subspace);

  const int64_t nodes0 = NodesBuiltCounter()->value();
  const Status status = model.Fit(world.ctx);
  autodiff::SetTapeLegacyMode(false);
  SUBREC_CHECK(status.ok()) << status.ToString();

  const rec::NPRecTrainStats& stats = model.train_stats();
  const size_t batch = static_cast<size_t>(options.batch_size);
  const size_t steps_per_epoch = (stats.num_pairs + batch - 1) / batch;
  FitRun run;
  run.steps_per_s =
      static_cast<double>(epochs) * static_cast<double>(steps_per_epoch) /
      std::max(stats.train_seconds, 1e-9);
  run.losses = stats.epoch_loss;
  run.tape_nodes = NodesBuiltCounter()->value() - nodes0;
  return run;
}

/// Runs {legacy, arena} x {1 thread, default threads} for one model, records
/// throughput + speedups, and checks the losses are bitwise identical
/// everywhere. The default-thread ratio is the headline number: on
/// multi-core hosts the legacy path's per-item slabs sit right at the
/// allocator's mmap threshold and contend on the kernel's mmap lock exactly
/// where the pooled tapes run allocation-free (on a single-core host the
/// two ratios coincide up to noise). Both fit ratios share the model's
/// full GEMM/elementwise compute; RunTapeMachinery below isolates the
/// machinery cost the rewrite removed.
void RunModel(const std::string& key,
              const std::function<FitRun(size_t, bool)>& fit,
              obs::RunReport* report) {
  const FitRun legacy1 = fit(1, true);
  const FitRun new1 = fit(1, false);
  const FitRun legacy_default = fit(0, true);
  // The default-thread arena fit also reports where a training step's time
  // goes: the trainers' per-batch phase spans, summed over the fit.
  obs::TraceRecorder::Global().Enable();
  const FitRun new_default = fit(0, false);
  const std::vector<obs::SpanTotal> totals =
      obs::TraceRecorder::Global().AggregateTotals();
  obs::TraceRecorder::Global().Disable();
  for (const char* phase : {"pairs", "grad_pull", "clip", "optimizer_step"}) {
    const std::string span = key + "/" + phase;
    double seconds = 0.0;
    for (const obs::SpanTotal& t : totals)
      if (t.name == span) seconds = static_cast<double>(t.total_ns) / 1e9;
    report->AddScalar("phase_s." + key + "." + phase, seconds);
    std::printf("%-6s phase %-15s %8.3f s\n", key.c_str(), phase, seconds);
  }

  SUBREC_CHECK(SameBits(legacy1.losses, new1.losses))
      << key << ": legacy vs arena losses differ";
  SUBREC_CHECK(SameBits(new1.losses, new_default.losses))
      << key << ": 1-thread vs default-thread losses differ";
  SUBREC_CHECK(SameBits(legacy1.losses, legacy_default.losses))
      << key << ": legacy 1-thread vs default-thread losses differ";

  const double speedup1 = new1.steps_per_s / legacy1.steps_per_s;
  const double speedup_default =
      new_default.steps_per_s / legacy_default.steps_per_s;
  report->AddScalar("steps_per_s." + key + ".legacy_threads1",
                    legacy1.steps_per_s);
  report->AddScalar("steps_per_s." + key + ".legacy_threads_default",
                    legacy_default.steps_per_s);
  report->AddScalar("steps_per_s." + key + ".threads1", new1.steps_per_s);
  report->AddScalar("steps_per_s." + key + ".threads_default",
                    new_default.steps_per_s);
  report->AddScalar("speedup." + key, speedup_default);
  report->AddScalar("speedup." + key + ".threads1", speedup1);
  report->AddScalar("tape_nodes." + key,
                    static_cast<double>(new1.tape_nodes));
  report->AddScalar("loss_bitwise_match." + key, 1.0);
  std::printf(
      "%-6s  1 thread: legacy %8.1f  arena %8.1f steps/s  x%.2f   "
      "default threads: legacy %8.1f  arena %8.1f steps/s  x%.2f\n",
      key.c_str(), legacy1.steps_per_s, new1.steps_per_s, speedup1,
      legacy_default.steps_per_s, new_default.steps_per_s, speedup_default);
}

/// Times the tape machinery itself — Reset + node construction + closure
/// vs. opcode backward — on a graph of small matrices where per-node
/// bookkeeping, not model FLOPs, dominates. The SEM/NPRec fits above share
/// their (identical) GEMM/elementwise compute between both paths, which
/// bounds their end-to-end ratio; this probe isolates the cost the rewrite
/// actually removed. Same bitwise contract: the loss must match exactly.
void RunTapeMachinery(obs::RunReport* report) {
  la::Matrix x(1, 8), w(8, 8), b(1, 8);
  for (size_t i = 0; i < x.size(); ++i) x.data()[i] = 0.02 * (i % 23) - 0.2;
  for (size_t i = 0; i < w.size(); ++i) w.data()[i] = 0.01 * (i % 31) - 0.15;
  for (size_t i = 0; i < b.size(); ++i) b.data()[i] = 0.005 * (i % 7) - 0.01;

  const auto one_pass = [&](autodiff::Tape* tape) {
    tape->Reset();
    autodiff::VarId in = tape->Input(x, /*requires_grad=*/false);
    autodiff::VarId wid = tape->Input(w);
    autodiff::VarId bid = tape->Input(b);
    autodiff::VarId h = in;
    for (int layer = 0; layer < 200; ++layer) {
      h = tape->Tanh(
          tape->AddRowBroadcast(tape->MatMul(h, wid), bid));
    }
    autodiff::VarId loss = tape->SumSquares(h);
    tape->Backward(loss);
    return tape->value(loss)(0, 0);
  };

  const auto run = [&](bool legacy) {
    autodiff::SetTapeLegacyMode(legacy);
    const int passes = bench::SmokeMode() ? 300 : 1500;
    double loss = 0.0;
    // Legacy mode allocates a fresh tape per pass, like the old
    // tape-per-item training loops; the arena path recycles one.
    autodiff::Tape arena_tape;
    const int64_t t0 = obs::NowNs();
    for (int p = 0; p < passes; ++p) {
      if (legacy) {
        autodiff::Tape fresh;
        loss = one_pass(&fresh);
      } else {
        loss = one_pass(&arena_tape);
      }
    }
    const double seconds = static_cast<double>(obs::NowNs() - t0) / 1e9;
    autodiff::SetTapeLegacyMode(false);
    return std::make_pair(passes / std::max(seconds, 1e-9), loss);
  };

  const auto [legacy_rate, legacy_loss] = run(true);
  const auto [arena_rate, arena_loss] = run(false);
  SUBREC_CHECK(legacy_loss == arena_loss)
      << "tape machinery: legacy vs arena loss differs";
  report->AddScalar("steps_per_s.tape_machinery.legacy", legacy_rate);
  report->AddScalar("steps_per_s.tape_machinery", arena_rate);
  report->AddScalar("speedup.tape_machinery", arena_rate / legacy_rate);
  std::printf("tape machinery (604-node small-matrix graph): legacy %8.1f  "
              "arena %8.1f passes/s  x%.2f\n",
              legacy_rate, arena_rate, arena_rate / legacy_rate);
}

/// Direct zero-allocation probe: after one warmup pass, Reset + rebuild of
/// a representative graph must not grow the arena and must recycle every
/// node slab.
void ProbeSteadyStateAllocations(obs::RunReport* report) {
  autodiff::Tape tape;
  la::Matrix x(16, 16);
  for (size_t i = 0; i < x.size(); ++i) x.data()[i] = 0.01 * (i % 37) - 0.1;
  const auto pass = [&]() {
    autodiff::VarId in = tape.Input(x);
    autodiff::VarId h = tape.Tanh(tape.MatMul(in, in));
    autodiff::VarId loss = tape.SumSquares(tape.RowMean(h));
    tape.Backward(loss);
  };
  pass();
  tape.Reset();
  const size_t warm_bytes = tape.bytes_reserved();
  const uint64_t hits0 = tape.slab_reuse_hits();
  pass();
  tape.Reset();
  const size_t steady_bytes = tape.bytes_reserved();
  const uint64_t reuse_hits = tape.slab_reuse_hits() - hits0;

  SUBREC_CHECK_EQ(warm_bytes, steady_bytes)
      << "steady-state rebuild grew the tape arena";
  SUBREC_CHECK_GT(reuse_hits, 0u) << "steady-state rebuild recycled no slabs";
  report->AddScalar("tape.arena_bytes_warm",
                    static_cast<double>(warm_bytes));
  report->AddScalar("tape.arena_bytes_steady",
                    static_cast<double>(steady_bytes));
  report->AddScalar("tape.steady_state_reuse_hits",
                    static_cast<double>(reuse_hits));
  std::printf("tape probe: %zu arena bytes flat across reset, %llu slab "
              "reuse hits\n",
              steady_bytes, static_cast<unsigned long long>(reuse_hits));
}

}  // namespace

int main() {
  obs::RunReport report = bench::OpenReport("train_step",
                                            /*enable_tracing=*/false);
  const bool smoke = bench::SmokeMode();
  if (bench::SingleCoreHost()) {
    std::printf("note: single-core host — default-thread speedups measure "
                "the serial code path only\n");
  }

  ProbeSteadyStateAllocations(&report);
  RunTapeMachinery(&report);

  // SEM: mine the triplets once (deterministic), then time TrainTwinNetwork
  // over them — the part of SemModel::Fit the tape rewrite touches.
  const auto scale =
      smoke ? datagen::DatasetScale::kTiny : datagen::DatasetScale::kSmall;
  auto sem_world = bench::BuildSemWorld(
      datagen::ScopusLikeOptions(scale, /*seed=*/404), {});
  const datagen::YearSplit split =
      datagen::SplitByYear(sem_world->dataset.corpus, 2014);
  bench::StampCorpus(&report, sem_world->dataset.corpus.papers.size());

  subspace::SubspaceEncoderOptions encoder_options;
  encoder_options.input_dim = sem_world->encoder->dim();
  encoder_options.hidden_dim = sem_world->encoder->dim();
  encoder_options.attention_dim = 16;
  rules::RuleFusion fusion(encoder_options.num_subspaces);
  for (int k = 0; k < encoder_options.num_subspaces; ++k)
    SUBREC_CHECK(fusion.SetWeights(k, {0.15, 0.15, 0.15, 0.55}).ok());
  SUBREC_CHECK(subspace::CalibrateFusion(sem_world->dataset.corpus, split.train,
                                         sem_world->features, *sem_world->engine,
                                         /*num_pairs=*/smoke ? 120 : 500,
                                         /*seed=*/43, &fusion)
                   .ok());
  subspace::TripletMinerOptions miner_options;
  miner_options.num_candidates = smoke ? 300 : 1200;
  const std::vector<subspace::Triplet> triplets = subspace::MineTriplets(
      sem_world->dataset.corpus, split.train, sem_world->features,
      *sem_world->engine, fusion, miner_options);
  std::printf("SEM: %zu triplets\n", triplets.size());
  report.AddScalar("sem.triplets", static_cast<double>(triplets.size()));

  const int sem_epochs = smoke ? 1 : 2;
  RunModel("sem",
           [&](size_t threads, bool legacy) {
             return RunSemFit(*sem_world, triplets, encoder_options, sem_epochs,
                              threads, legacy);
           },
           &report);

  // NPRec: build the rec world (trains a fresh SEM internally), then time
  // NPRec::Fit's optimization loop via train_stats().train_seconds.
  bench::RecWorldOptions rec_options;
  rec_options.max_users = smoke ? 20 : 60;
  auto rec_world = bench::BuildRecWorld(std::move(sem_world), rec_options);
  const int nprec_epochs = smoke ? 1 : 2;
  const int nprec_positives = smoke ? 150 : 600;
  RunModel("nprec",
           [&](size_t threads, bool legacy) {
             return RunNPRecFit(*rec_world, nprec_epochs, nprec_positives,
                                threads, legacy);
           },
           &report);

  bench::WriteReport(&report);
  return 0;
}
