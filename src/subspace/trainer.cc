#include "subspace/trainer.h"

#include <algorithm>
#include <memory>

#include "autodiff/tape_pool.h"
#include "common/rng.h"
#include "la/check_finite.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "nn/ordered_pull.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "par/parallel.h"

namespace subrec::subspace {
namespace {

/// One triplet's forward/backward state, built in parallel within a batch.
/// Parameters only change at the optimizer step (a batch boundary), so the
/// per-item tapes read frozen values; gradients are pulled in item order
/// (nn::OrderedPull), reproducing the sequential schedule bit for bit.
struct TripletWork {
  std::unique_ptr<autodiff::Tape> tape;
  std::unique_ptr<nn::TapeBinding> binding;
  autodiff::VarId loss = 0;
  double loss_value = 0.0;
};

}  // namespace

double OrderAccuracy(const std::vector<rules::PaperContentFeatures>& features,
                     const std::vector<Triplet>& triplets,
                     const TwinNetwork& net) {
  if (triplets.empty()) return 0.0;
  // slot[id] indexes the cached embeddings of paper id (-1: not in any
  // triplet); papers are embedded in ascending id order, one slot each.
  std::vector<int> slot(features.size(), -1);
  for (const Triplet& t : triplets) {
    for (corpus::PaperId id : {t.anchor, t.positive, t.negative}) {
      SUBREC_CHECK(id >= 0 && static_cast<size_t>(id) < features.size())
          << "OrderAccuracy: triplet id out of range";
      slot[static_cast<size_t>(id)] = 0;
    }
  }
  std::vector<corpus::PaperId> papers;
  for (size_t id = 0; id < slot.size(); ++id) {
    if (slot[id] < 0) continue;
    slot[id] = static_cast<int>(papers.size());
    papers.push_back(static_cast<corpus::PaperId>(id));
  }
  std::vector<std::vector<std::vector<double>>> embedded(papers.size());
  par::ParallelFor(papers.size(), 8, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i)
      embedded[i] = net.Embed(features[static_cast<size_t>(papers[i])]);
  });
  const auto row = [&](corpus::PaperId id,
                        int k) -> const std::vector<double>& {
    return embedded[static_cast<size_t>(slot[static_cast<size_t>(id)])]
                   [static_cast<size_t>(k)];
  };
  int correct = 0;
  for (const Triplet& t : triplets) {
    const double dp = TwinNetwork::DistanceBetween(row(t.anchor, t.subspace),
                                                   row(t.positive, t.subspace));
    const double dn = TwinNetwork::DistanceBetween(row(t.anchor, t.subspace),
                                                   row(t.negative, t.subspace));
    if (dp > dn) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(triplets.size());
}

Result<SemTrainStats> TrainTwinNetwork(
    const std::vector<rules::PaperContentFeatures>& features,
    const std::vector<Triplet>& triplets, const SemTrainerOptions& options,
    TwinNetwork* net) {
  if (triplets.empty())
    return Status::InvalidArgument("TrainTwinNetwork: no triplets");
  for (const Triplet& t : triplets) {
    const auto valid = [&](corpus::PaperId id) {
      return id >= 0 && static_cast<size_t>(id) < features.size();
    };
    if (!valid(t.anchor) || !valid(t.positive) || !valid(t.negative))
      return Status::InvalidArgument("TrainTwinNetwork: triplet id out of range");
    if (t.subspace < 0 || t.subspace >= net->options().num_subspaces)
      return Status::InvalidArgument("TrainTwinNetwork: bad subspace");
  }

  SUBREC_TRACE_SPAN("sem/train");
  static obs::Counter* const steps =
      obs::MetricsRegistry::Global().GetCounter("sem.trainer_steps");
  static obs::Histogram* const loss_hist =
      obs::MetricsRegistry::Global().GetHistogram(
          "sem.triplet_loss", {0.01, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0});
  const int64_t train_start_ns = obs::NowNs();
  nn::Adam optimizer(options.learning_rate);
  const std::vector<nn::Parameter*> params = net->store()->params();
  nn::L2Regularizer l2(params, options.lambda);
  Rng rng(options.seed);
  std::vector<size_t> order(triplets.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;

  SemTrainStats stats;
  // Tapes are pooled across items so each worker reuses a warmed-up node
  // arena; work slots keep their TapeBinding so its tables are recycled
  // too. Which arena an item lands on affects only memory reuse, never the
  // floating-point schedule.
  autodiff::TapePool tape_pool;
  std::vector<TripletWork> work;
  nn::OrderedPull puller;
  // Adds one finished item's gradients into the parameters; OrderedPull
  // runs it in item order, one item at a time.
  const auto pull = [&](size_t w) {
    TripletWork& tw = work[w];
    tw.binding->PullGradients();
    tw.loss_value = tw.tape->value(tw.loss)(0, 0);
    tape_pool.Release(std::move(tw.tape));
  };
  for (int epoch = 0; epoch < options.epochs; ++epoch) {
    rng.Shuffle(order);
    double epoch_loss = 0.0;
    const size_t batch =
        options.batch_size > 0 ? static_cast<size_t>(options.batch_size) : 1;
    for (size_t b0 = 0; b0 < order.size(); b0 += batch) {
      const size_t b1 = std::min(order.size(), b0 + batch);
      // Forward/backward for each batch item on its own tape. Parameter
      // values are frozen until the step below, so the items are
      // independent and the chunking cannot change any result.
      work.resize(b1 - b0);
      l2.Refresh();
      puller.Begin(b1 - b0);
      {
        SUBREC_TRACE_SPAN("sem/pairs");
        par::ParallelFor(b1 - b0, 1, [&](size_t w_begin, size_t w_end) {
          for (size_t w = w_begin; w < w_end; ++w) {
            const Triplet& t = triplets[order[b0 + w]];
            std::unique_ptr<autodiff::Tape> tape = tape_pool.Acquire();
            if (work[w].binding == nullptr)
              work[w].binding = std::make_unique<nn::TapeBinding>();
            nn::TapeBinding* binding = work[w].binding.get();
            binding->Reset(tape.get());
            const auto cp = net->EmbedOnTape(
                tape.get(), binding, features[static_cast<size_t>(t.anchor)]);
            const auto cq = net->EmbedOnTape(
                tape.get(), binding,
                features[static_cast<size_t>(t.positive)]);
            const auto cq2 = net->EmbedOnTape(
                tape.get(), binding,
                features[static_cast<size_t>(t.negative)]);
            const size_t k = static_cast<size_t>(t.subspace);
            autodiff::VarId d_pos =
                net->DistanceOnTape(tape.get(), cp[k], cq[k]);
            autodiff::VarId d_neg =
                net->DistanceOnTape(tape.get(), cp[k], cq2[k]);
            autodiff::VarId loss =
                nn::TripletHingeLoss(tape.get(), d_pos, d_neg, options.margin);
            loss = l2.AddTo(tape.get(), binding, loss);
            tape->Backward(loss);
            work[w].tape = std::move(tape);
            work[w].loss = loss;
            puller.Done(w, pull);
          }
        });
      }
      {
        SUBREC_TRACE_SPAN("sem/grad_pull");
        puller.Finish(pull);
        // The loss sum stays serial and in item order.
        for (const TripletWork& tw : work) {
          SUBREC_CHECK_FINITE(tw.loss_value, "SEM trainer triplet loss");
          epoch_loss += tw.loss_value;
          loss_hist->Observe(tw.loss_value);
        }
      }
      {
        SUBREC_TRACE_SPAN("sem/clip");
        nn::ClipGradNorm(params, options.clip_norm);
      }
      {
        SUBREC_TRACE_SPAN("sem/optimizer_step");
        optimizer.Step(params);
      }
      steps->Increment();
    }
    const double mean_loss =
        epoch_loss / static_cast<double>(triplets.size());
    stats.epoch_loss.push_back(mean_loss);
    if (options.observer) {
      obs::TrainingEvent ev;
      ev.model = "sem";
      ev.epoch = epoch + 1;
      ev.total_epochs = options.epochs;
      ev.loss = mean_loss;
      ev.samples = static_cast<int64_t>(triplets.size());
      ev.elapsed_seconds =
          static_cast<double>(obs::NowNs() - train_start_ns) / 1e9;
      options.observer(ev);
    }
  }

  {
    SUBREC_TRACE_SPAN("sem/order_accuracy");
    stats.final_order_accuracy = OrderAccuracy(features, triplets, *net);
  }
  return stats;
}

}  // namespace subrec::subspace
