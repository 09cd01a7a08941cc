#ifndef SUBREC_NN_PARAMETER_H_
#define SUBREC_NN_PARAMETER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "autodiff/tape.h"
#include "la/matrix.h"

namespace subrec::nn {

/// A named trainable matrix that persists across tape rebuilds. Gradients
/// accumulate into `grad` between optimizer steps (so several forward/
/// backward passes can contribute to one step).
struct Parameter {
  std::string name;
  la::Matrix value;
  la::Matrix grad;
  /// Process-unique id handed out by ParameterStore::Create in creation
  /// order, so a model's parameters get consecutive ids (unless another
  /// store creates parameters concurrently). Per-parameter tables
  /// (ParameterTable) index by it instead of hashing the pointer.
  uint32_t id = 0;
};

/// Owns the Parameters of a model. Models hand out raw Parameter* whose
/// lifetime is that of the store.
class ParameterStore {
 public:
  ParameterStore() = default;
  ParameterStore(const ParameterStore&) = delete;
  ParameterStore& operator=(const ParameterStore&) = delete;

  /// Registers a new parameter initialized to `init`.
  Parameter* Create(std::string name, la::Matrix init) {
    static std::atomic<uint32_t> next_id{0};
    auto p = std::make_unique<Parameter>();
    p->name = std::move(name);
    p->grad = la::Matrix(init.rows(), init.cols());
    p->value = std::move(init);
    p->id = next_id.fetch_add(1, std::memory_order_relaxed);
    params_.push_back(std::move(p));
    return params_.back().get();
  }

  std::vector<Parameter*> params() const {
    std::vector<Parameter*> out;
    out.reserve(params_.size());
    for (const auto& p : params_) out.push_back(p.get());
    return out;
  }

  void ZeroGrads() {
    for (const auto& p : params_) p->grad.Fill(0.0);
  }

  /// Total number of scalar weights (for logging / sanity checks).
  size_t TotalSize() const {
    size_t n = 0;
    for (const auto& p : params_) n += p->value.size();
    return n;
  }

 private:
  std::vector<std::unique_ptr<Parameter>> params_;
};

/// Dense per-parameter table keyed by Parameter::id: O(1) lookup without
/// hashing. It spans the id range of the parameters it has seen, which for
/// one model's parameters is about the size of that model's store.
template <typename T>
class ParameterTable {
 public:
  /// The slot of `p`, value-initialized on first access. May move earlier
  /// slots, so do not hold a reference across calls.
  T& operator[](const Parameter& p) {
    if (slots_.empty()) {
      base_ = p.id;
    } else if (p.id < base_) {
      slots_.insert(slots_.begin(), base_ - p.id, T());
      base_ = p.id;
    }
    const size_t i = p.id - base_;
    if (i >= slots_.size()) slots_.resize(i + 1);
    return slots_[i];
  }

 private:
  uint32_t base_ = 0;
  std::vector<T> slots_;
};

/// Binds parameters onto a Tape for one forward pass: Use() creates the leaf
/// node, PullGradients() adds the tape's leaf gradients back into each
/// Parameter::grad after Tape::Backward(). A parameter bound twice shares
/// one leaf (gradient contributions from both uses accumulate naturally).
///
/// The leaf is an InputRef reading Parameter::value in place, so binding is
/// copy-free — which requires that parameter values stay frozen between
/// Use() and the last Backward() on the tape. The batch-parallel trainers
/// already guarantee this (the optimizer steps only between batches).
/// A binding is reusable across items: Reset(tape) forgets the bound leaves
/// in O(1) (a stamp bump) and keeps every table's storage.
class TapeBinding {
 public:
  /// An unbound binding; call Reset() before the first Use().
  TapeBinding() = default;
  explicit TapeBinding(autodiff::Tape* tape) : tape_(tape) {}

  /// Rebinds to `tape` (typically a freshly Reset pooled tape) and drops
  /// all leaf associations without releasing storage.
  void Reset(autodiff::Tape* tape) {
    tape_ = tape;
    bound_.clear();
    ++stamp_;
  }

  autodiff::VarId Use(Parameter* p) {
    Slot& slot = slots_[*p];
    if (slot.stamp == stamp_) return slot.var;
    const autodiff::VarId id =
        tape_->InputRef(&p->value, /*requires_grad=*/true);
    slot.stamp = stamp_;
    slot.var = id;
    bound_.emplace_back(p, id);
    return id;
  }

  /// param->grad += leaf gradient, for every bound parameter. Each
  /// parameter is touched once, so the order over parameters is free; the
  /// order over tapes is the caller's.
  void PullGradients() {
    for (const auto& [param, id] : bound_) {
      const la::Matrix& g = tape_->grad(id);
      if (!g.SameShape(param->grad)) continue;
      double* dst = param->grad.data();
      const double* src = g.data();
      const size_t n = g.size();
      for (size_t k = 0; k < n; ++k) dst[k] += src[k];
    }
  }

 private:
  struct Slot {
    uint64_t stamp = 0;  // bound on this pass iff equal to stamp_
    autodiff::VarId var = 0;
  };

  autodiff::Tape* tape_ = nullptr;
  uint64_t stamp_ = 1;
  ParameterTable<Slot> slots_;
  std::vector<std::pair<Parameter*, autodiff::VarId>> bound_;
};

}  // namespace subrec::nn

#endif  // SUBREC_NN_PARAMETER_H_
