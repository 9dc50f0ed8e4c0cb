#include "core/subset_sum.h"

#include <algorithm>
#include <cmath>

#include "stats/normal.h"

namespace dsketch {

double SubsetSumEstimate::StdDev() const { return std::sqrt(variance); }

Interval SubsetSumEstimate::Confidence(double level) const {
  double z = NormalTwoSidedZ(level);
  double half = z * StdDev();
  return Interval{estimate - half, estimate + half};
}

SubsetSumEstimate EstimateSubsetSum(
    const UnbiasedSpaceSaving& sketch,
    const std::function<bool(uint64_t)>& pred) {
  return SubsetSumOver(sketch, sketch.MinCount(), pred);
}

SubsetSumEstimate EstimateSubsetSum(
    const UnbiasedSpaceSaving& sketch,
    const std::unordered_set<uint64_t>& items) {
  return EstimateSubsetSum(sketch, [&items](uint64_t item) {
    return items.find(item) != items.end();
  });
}

SubsetSumEstimate EstimateSubsetSumFromEntries(
    const std::vector<SketchEntry>& entries, int64_t min_count,
    const std::function<bool(uint64_t)>& pred) {
  SubsetSumEstimate out;
  for (const SketchEntry& e : entries) {
    if (pred(e.item)) {
      out.estimate += static_cast<double>(e.count);
      ++out.items_in_sample;
    }
  }
  double nmin = static_cast<double>(min_count);
  double c_s = static_cast<double>(std::max<uint64_t>(1, out.items_in_sample));
  out.variance = nmin * nmin * c_s;
  return out;
}

}  // namespace dsketch
