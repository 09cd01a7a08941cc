#ifndef SUBREC_SUBSPACE_TWIN_NETWORK_H_
#define SUBREC_SUBSPACE_TWIN_NETWORK_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "autodiff/tape.h"
#include "common/rng.h"
#include "nn/parameter.h"
#include "subspace/subspace_encoder.h"

namespace subrec::subspace {

/// The twin (Siamese) network of Sec. III-B: both branches share one
/// SubspaceEncoderNet whose parameters live in this object's store. The
/// model distance is the paper's indicator D^k(p,q) = -c_p^k . c_q^k.
class TwinNetwork {
 public:
  TwinNetwork(const SubspaceEncoderOptions& options, uint64_t seed);

  /// Embeds one paper's content on a caller-managed tape (training path).
  std::vector<autodiff::VarId> EmbedOnTape(
      autodiff::Tape* tape, nn::TapeBinding* binding,
      const rules::PaperContentFeatures& features) const;

  /// D^k as a 1x1 node: the negative inner product of two subspace
  /// embedding nodes.
  autodiff::VarId DistanceOnTape(autodiff::Tape* tape, autodiff::VarId cp,
                                 autodiff::VarId cq) const;

  /// Inference: K embedding vectors (each 2*hidden wide) for one paper.
  std::vector<std::vector<double>> Embed(
      const rules::PaperContentFeatures& features) const;

  /// Inference distance D^k between two papers in subspace k.
  double Distance(const rules::PaperContentFeatures& p,
                  const rules::PaperContentFeatures& q, int k) const;

  /// D^k from two already-computed subspace-k embeddings (rows of Embed):
  /// -cp . cq summed in index order, exactly the value Distance returns.
  static double DistanceBetween(const std::vector<double>& cp,
                                const std::vector<double>& cq);

  nn::ParameterStore* store() { return &store_; }
  const SubspaceEncoderOptions& options() const { return net_.options(); }
  size_t embedding_dim() const { return net_.output_dim(); }

 private:
  nn::ParameterStore store_;
  SubspaceEncoderNet net_;
};

}  // namespace subrec::subspace

#endif  // SUBREC_SUBSPACE_TWIN_NETWORK_H_
