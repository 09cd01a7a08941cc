#include "subspace/twin_network.h"

namespace subrec::subspace {

namespace {

SubspaceEncoderNet MakeNet(nn::ParameterStore* store,
                           const SubspaceEncoderOptions& options,
                           uint64_t seed) {
  Rng rng(seed);
  return SubspaceEncoderNet(store, options, rng);
}

}  // namespace

TwinNetwork::TwinNetwork(const SubspaceEncoderOptions& options, uint64_t seed)
    : net_(MakeNet(&store_, options, seed)) {}

std::vector<autodiff::VarId> TwinNetwork::EmbedOnTape(
    autodiff::Tape* tape, nn::TapeBinding* binding,
    const rules::PaperContentFeatures& features) const {
  return net_.Forward(tape, binding, features.sentence_vectors,
                      features.roles);
}

autodiff::VarId TwinNetwork::DistanceOnTape(autodiff::Tape* tape,
                                            autodiff::VarId cp,
                                            autodiff::VarId cq) const {
  return tape->Scale(tape->MatMulTransB(cp, cq), -1.0);
}

std::vector<std::vector<double>> TwinNetwork::Embed(
    const rules::PaperContentFeatures& features) const {
  autodiff::Tape tape;
  nn::TapeBinding binding(&tape);
  const std::vector<autodiff::VarId> nodes =
      EmbedOnTape(&tape, &binding, features);
  std::vector<std::vector<double>> out;
  out.reserve(nodes.size());
  for (autodiff::VarId id : nodes) out.push_back(tape.value(id).RowToVector(0));
  return out;
}

double TwinNetwork::Distance(const rules::PaperContentFeatures& p,
                             const rules::PaperContentFeatures& q,
                             int k) const {
  const auto ep = Embed(p);
  const auto eq = Embed(q);
  SUBREC_CHECK(k >= 0 && static_cast<size_t>(k) < ep.size());
  return DistanceBetween(ep[static_cast<size_t>(k)],
                         eq[static_cast<size_t>(k)]);
}

double TwinNetwork::DistanceBetween(const std::vector<double>& cp,
                                    const std::vector<double>& cq) {
  SUBREC_CHECK_EQ(cp.size(), cq.size());
  double dot = 0.0;
  for (size_t i = 0; i < cp.size(); ++i) dot += cp[i] * cq[i];
  return -dot;
}

}  // namespace subrec::subspace
