#ifndef SUBREC_SUBSPACE_TRAINER_H_
#define SUBREC_SUBSPACE_TRAINER_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "obs/training_observer.h"
#include "rules/expert_rules.h"
#include "subspace/triplet_miner.h"
#include "subspace/twin_network.h"

namespace subrec::subspace {

/// Optimization hyperparameters of the twin-network fine-tuning loop
/// (Sec. III-D, Eq. 14).
struct SemTrainerOptions {
  int epochs = 3;
  /// Triplets per optimizer step (gradient accumulation).
  int batch_size = 8;
  double learning_rate = 3e-3;
  /// Hinge margin epsilon of Eq. 14.
  double margin = 0.2;
  /// L2 regularization lambda of Eq. 14.
  double lambda = 1e-5;
  double clip_norm = 5.0;
  uint64_t seed = 23;
  /// Optional per-epoch progress callback (model = "sem"). Invoked from the
  /// training thread after each epoch; empty means no reporting.
  obs::TrainingObserver observer;
};

/// Progress of one training run.
struct SemTrainStats {
  std::vector<double> epoch_loss;
  /// Fraction of triplets whose model distances already satisfy the rule
  /// ordering after training.
  double final_order_accuracy = 0.0;
};

/// Fraction of `triplets` whose model distances satisfy the rule ordering,
/// D(anchor, positive) > D(anchor, negative). Embeds each distinct triplet
/// paper once, in parallel, and compares TwinNetwork::DistanceBetween on
/// the cached embeddings: Embed is a pure function of the features and the
/// frozen weights, so this equals calling Distance per triplet.
double OrderAccuracy(const std::vector<rules::PaperContentFeatures>& features,
                     const std::vector<Triplet>& triplets,
                     const TwinNetwork& net);

/// Fine-tunes `net` on mined triplets with the hinge contrast loss
/// max(0, D(p,q') - D(p,q) + eps) + lambda*||theta||^2, Adam, and gradient
/// clipping. `features` is indexed by PaperId.
Result<SemTrainStats> TrainTwinNetwork(
    const std::vector<rules::PaperContentFeatures>& features,
    const std::vector<Triplet>& triplets, const SemTrainerOptions& options,
    TwinNetwork* net);

}  // namespace subrec::subspace

#endif  // SUBREC_SUBSPACE_TRAINER_H_
