// Training-step throughput of the arena-backed tape: times one SEM
// twin-network fit and one NPRec fit at 1 thread and at the default thread
// count. Also proves two tape contracts: per-epoch losses are bitwise
// identical across thread counts, and a warmed-up tape performs zero slab
// allocations across Reset/rebuild cycles. The default-thread fits are
// traced, and the seconds of each training phase (pair forward/backward,
// the serial rest of the gradient pull, clipping, the optimizer step) are
// reported as phase_s.<model>.<phase>. Speedups are read by comparing two
// committed reports, not by racing a copy of older code in this binary.

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
                 int epochs, size_t threads) {
  par::ScopedNumThreads scoped(threads);
  subspace::TwinNetwork net(encoder_options, /*seed=*/21);
  subspace::SemTrainerOptions trainer_options;
  trainer_options.epochs = epochs;

  const int64_t nodes0 = NodesBuiltCounter()->value();
  const int64_t t0 = obs::NowNs();
  auto stats =
      subspace::TrainTwinNetwork(world.features, triplets, trainer_options, &net);
  const double seconds = static_cast<double>(obs::NowNs() - t0) / 1e9;
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
                   size_t threads) {
  par::ScopedNumThreads scoped(threads);
  rec::NPRecOptions options;
  options.epochs = epochs;
  options.use_raw_text_channel = true;  // exercises the per-batch raw cache
  options.sampler.max_positives = max_positives;
  rec::NPRec model(options, &world.subspace);

  const int64_t nodes0 = NodesBuiltCounter()->value();
  const Status status = model.Fit(world.ctx);
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

/// Runs one model's fit at 1 thread and at the default thread count,
/// records throughput, and checks the losses are bitwise identical across
/// the two.
void RunModel(const std::string& key, const std::function<FitRun(size_t)>& fit,
              obs::RunReport* report) {
  const FitRun threads1 = fit(1);
  // The default-thread fit also reports where a training step's time goes:
  // the trainers' per-batch phase spans, summed over the fit.
  obs::TraceRecorder::Global().Enable();
  const FitRun threads_default = fit(0);
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

  SUBREC_CHECK(SameBits(threads1.losses, threads_default.losses))
      << key << ": 1-thread vs default-thread losses differ";

  report->AddScalar("steps_per_s." + key + ".threads1", threads1.steps_per_s);
  report->AddScalar("steps_per_s." + key + ".threads_default",
                    threads_default.steps_per_s);
  report->AddScalar("tape_nodes." + key,
                    static_cast<double>(threads1.tape_nodes));
  std::printf("%-6s  1 thread: %8.1f steps/s   default threads: %8.1f "
              "steps/s\n",
              key.c_str(), threads1.steps_per_s, threads_default.steps_per_s);
}

/// Times the tape machinery itself — Reset + node construction + opcode
/// backward — on a graph of small matrices where per-node bookkeeping, not
/// model FLOPs, dominates. One arena tape is recycled across passes.
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
  };

  const int passes = bench::SmokeMode() ? 300 : 1500;
  autodiff::Tape tape;
  const int64_t t0 = obs::NowNs();
  for (int p = 0; p < passes; ++p) one_pass(&tape);
  const double seconds = static_cast<double>(obs::NowNs() - t0) / 1e9;
  const double rate = passes / std::max(seconds, 1e-9);
  report->AddScalar("steps_per_s.tape_machinery", rate);
  std::printf("tape machinery (604-node small-matrix graph): %8.1f "
              "passes/s\n",
              rate);
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
    std::printf("note: single-core host — default-thread rates measure "
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
           [&](size_t threads) {
             return RunSemFit(*sem_world, triplets, encoder_options, sem_epochs,
                              threads);
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
           [&](size_t threads) {
             return RunNPRecFit(*rec_world, nprec_epochs, nprec_positives,
                                threads);
           },
           &report);

  bench::WriteReport(&report);
  return 0;
}
