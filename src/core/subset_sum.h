// Disaggregated subset sum estimation over an Unbiased Space Saving sketch
// (paper §6.4-6.5): point estimate, the variance estimator
//
//   V̂ar(N̂_S) = N̂min² · C_S        (paper eq. 5)
//
// where C_S = max(1, #items of S tracked by the sketch), and normal
// confidence intervals built from it. The variance estimate is valid (and
// deliberately upward biased) even for worst-case non-i.i.d. streams.
//
// Every integer-count subset sum in the library — EstimateSubsetSum, the
// query engine's Sum / SumWindow, the frozen image's sum and the C ABI's —
// runs the one kernel SubsetSumOver: a walk over the bins in entry order
// that adds each matched bin's count into an integer sum and C_S without
// a branch. Counts are integers, so the integer sum is exact, and a
// double sum of the same counts is exact (in any order) while it stays
// below 2^53: converting the integer sum once gives the same bits a
// per-bin double accumulation would. Past 2^53 the integer sum stays
// exact where the double one would round.

#ifndef DSKETCH_CORE_SUBSET_SUM_H_
#define DSKETCH_CORE_SUBSET_SUM_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <unordered_set>
#include <vector>

#include "core/unbiased_space_saving.h"

namespace dsketch {

/// A two-sided interval.
struct Interval {
  double lo = 0.0;
  double hi = 0.0;

  /// True if `x` lies inside the interval (inclusive).
  bool Contains(double x) const { return x >= lo && x <= hi; }

  /// Interval width.
  double Width() const { return hi - lo; }
};

/// Result of a subset sum query against a sketch.
struct SubsetSumEstimate {
  double estimate = 0.0;       ///< unbiased estimate of the subset sum
  double variance = 0.0;       ///< V̂ar from paper eq. 5 (upward biased)
  uint64_t items_in_sample = 0;  ///< C_S before the max(1, .) floor

  /// Estimated standard deviation.
  double StdDev() const;

  /// Normal confidence interval at `level` (e.g. 0.95).
  Interval Confidence(double level) const;
};

/// Paper eq. 5 over an accumulated subset: `sum` is the matched bins'
/// total count and `items` their number (C_S before the floor), in a
/// sketch whose smallest bin holds `min_count`.
inline SubsetSumEstimate FinishSubsetSum(int64_t sum, uint64_t items,
                                         int64_t min_count) {
  SubsetSumEstimate out;
  out.estimate = static_cast<double>(sum);
  out.items_in_sample = items;
  const double nmin = static_cast<double>(min_count);
  const double c_s = static_cast<double>(items > 1 ? items : uint64_t{1});
  out.variance = nmin * nmin * c_s;
  return out;
}

/// The subset-sum kernel. `bins.ForEachEntry(visit)` must call
/// visit(item, count) on every bin (UnbiasedSpaceSaving and
/// wire::FrozenView both do, in place); `match(item)` says whether the
/// item is in the subset. Sums wrap modulo 2^64 instead of overflowing,
/// so an image with hostile counts gives a wrong answer, never undefined
/// behaviour; a real sketch's counts sum to its int64 total.
template <typename Bins, typename Match>
SubsetSumEstimate SubsetSumOver(const Bins& bins, int64_t min_count,
                                Match&& match) {
  uint64_t sum = 0;
  uint64_t items = 0;
  bins.ForEachEntry([&](uint64_t item, int64_t count) {
    const uint64_t in = match(item) ? 1 : 0;
    sum += static_cast<uint64_t>(count) & (0 - in);
    items += in;
    return true;
  });
  return FinishSubsetSum(static_cast<int64_t>(sum), items, min_count);
}

/// Estimates the sum over all items satisfying `pred`.
SubsetSumEstimate EstimateSubsetSum(
    const UnbiasedSpaceSaving& sketch,
    const std::function<bool(uint64_t)>& pred);

/// Estimates the sum over an explicit item set.
SubsetSumEstimate EstimateSubsetSum(
    const UnbiasedSpaceSaving& sketch,
    const std::unordered_set<uint64_t>& items);

/// Estimate over pre-listed sketch entries; `min_count` is the sketch's
/// MinCount(). A plain double accumulation, kept apart from
/// SubsetSumOver so tests can check the kernel against it.
SubsetSumEstimate EstimateSubsetSumFromEntries(
    const std::vector<SketchEntry>& entries, int64_t min_count,
    const std::function<bool(uint64_t)>& pred);

}  // namespace dsketch

#endif  // DSKETCH_CORE_SUBSET_SUM_H_
