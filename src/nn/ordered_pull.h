#ifndef SUBREC_NN_ORDERED_PULL_H_
#define SUBREC_NN_ORDERED_PULL_H_

#include <atomic>
#include <cstddef>
#include <memory>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace subrec::nn {

/// Moves the in-order gradient pull of a batch-parallel trainer off its
/// serial path. Item i's tape gradients may be added into Parameter::grad
/// only after those of items 0..i-1, and never concurrently with another
/// item's (items share parameters). The worker that finishes item i calls
/// Done(i, pull): if no other thread holds the puller role, it takes it and
/// pulls every finished item from the cursor on, in order, stopping at the
/// first unfinished one. Finish(pull) pulls what is left once the parallel
/// region has joined.
///
/// Every parameter therefore receives its contributions in item order —
/// the same floating-point addition sequence as a serial pull after the
/// region — while most of the pulling overlaps the forward/backward passes
/// of later items.
///
///   puller.Begin(n);
///   par::ParallelFor(n, 1, [&](size_t b, size_t e) {
///     for (size_t i = b; i < e; ++i) { ...backward...; puller.Done(i, pull); }
///   });
///   puller.Finish(pull);
class OrderedPull {
 public:
  /// Arms the pull for a batch of `n` items. Call before the parallel
  /// region, never concurrently with Done/Finish.
  void Begin(size_t n) {
    if (n > capacity_) {
      done_ = std::make_unique<std::atomic<bool>[]>(n);
      capacity_ = n;
    }
    for (size_t i = 0; i < n; ++i)
      done_[i].store(false, std::memory_order_relaxed);
    n_ = n;
    common::MutexLock lock(&mu_);
    next_ = 0;
  }

  /// Marks item i finished (its gradients are final) and pulls finished
  /// items in order if the puller role is free. `pull(j)` runs exactly once
  /// per item across Done and Finish, in ascending j, one at a time.
  template <typename PullFn>
  void Done(size_t i, const PullFn& pull) {
    done_[i].store(true, std::memory_order_release);
    for (;;) {
      if (!mu_.TryLock()) return;  // the role holder (or Finish) takes i
      size_t next = next_;
      while (next < n_ && done_[next].load(std::memory_order_acquire))
        pull(next++);
      next_ = next;
      mu_.Unlock();
      // An item that finished between the scan and the unlock found the
      // role taken and left it to us: take the role again if so.
      if (next >= n_ || !done_[next].load(std::memory_order_acquire)) return;
    }
  }

  /// Pulls every item not yet pulled. Call after the parallel region has
  /// joined, when every item is finished.
  template <typename PullFn>
  void Finish(const PullFn& pull) {
    common::MutexLock lock(&mu_);
    while (next_ < n_) pull(next_++);
  }

 private:
  size_t n_ SUBREC_UNGUARDED("written by Begin before the region") = 0;
  size_t capacity_ SUBREC_UNGUARDED("written by Begin before the region") = 0;
  std::unique_ptr<std::atomic<bool>[]> done_;
  common::Mutex mu_;
  size_t next_ SUBREC_GUARDED_BY(mu_) = 0;  // first item not yet pulled
};

}  // namespace subrec::nn

#endif  // SUBREC_NN_ORDERED_PULL_H_
