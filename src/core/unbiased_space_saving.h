// Unbiased Space Saving — the paper's primary contribution (Algorithm 1
// with p = 1/(Nmin+1)).
//
// One sketch answers both problems the paper targets:
//  * disaggregated subset sum: EstimateCount / EstimateSubsetSum (see
//    core/subset_sum.h) are unbiased for any item or item set (Theorem 1),
//    with a variance estimator and normal confidence intervals;
//  * frequent items: on i.i.d. streams every item with frequency > 1/m is
//    eventually tracked with probability 1 and its proportion estimate is
//    strongly consistent (Theorems 3, Corollaries 4-5).
//
// Updates are O(1); space is O(m).

#ifndef DSKETCH_CORE_UNBIASED_SPACE_SAVING_H_
#define DSKETCH_CORE_UNBIASED_SPACE_SAVING_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/space_saving_core.h"

namespace dsketch {

/// The Unbiased Space Saving sketch (paper Algorithm 1, randomized label).
class UnbiasedSpaceSaving {
 public:
  /// Sketch with `capacity` bins; `seed` makes runs reproducible.
  explicit UnbiasedSpaceSaving(size_t capacity, uint64_t seed = 1,
                               TieBreak tie_break = TieBreak::kRandom)
      : core_(capacity, LabelPolicy::kUnbiased, seed, tie_break) {}

  /// Processes one disaggregated row with unit-of-analysis label `item`.
  void Update(uint64_t item) { core_.Update(item); }

  /// Processes `items` in stream order; bit-for-bit identical to per-row
  /// Update but faster (pre-hashing + software prefetch; see
  /// SpaceSavingCore::UpdateBatch).
  void UpdateBatch(Span<const uint64_t> items) { core_.UpdateBatch(items); }

  /// Unbiased estimate of `item`'s count (0 when untracked).
  int64_t EstimateCount(uint64_t item) const {
    return core_.EstimateCount(item);
  }

  /// True if `item` currently labels a bin.
  bool Contains(uint64_t item) const { return core_.Contains(item); }

  /// Count of the minimum bin; drives the variance estimator (eq. 5).
  int64_t MinCount() const { return core_.MinCount(); }

  /// Rows processed; the sketch preserves this total exactly.
  int64_t TotalCount() const { return core_.TotalCount(); }

  /// Number of bins (m).
  size_t capacity() const { return core_.capacity(); }

  /// Number of labeled bins.
  size_t size() const { return core_.size(); }

  /// Labeled bins in descending count order.
  std::vector<SketchEntry> Entries() const { return core_.Entries(); }

  /// Visits the labeled bins in Entries() order without copying them;
  /// stops when `visit(item, count)` returns false.
  template <typename Visit>
  void ForEachEntry(Visit&& visit) const {
    core_.ForEachEntry(visit);
  }

  /// Access for merge/estimation helpers.
  const SpaceSavingCore& core() const { return core_; }
  SpaceSavingCore& core() { return core_; }

 private:
  SpaceSavingCore core_;
};

}  // namespace dsketch

#endif  // DSKETCH_CORE_UNBIASED_SPACE_SAVING_H_
