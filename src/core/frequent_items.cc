#include "core/frequent_items.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"

namespace dsketch {
namespace {

std::vector<FrequentItem> FrequentFromEntries(
    const std::vector<SketchEntry>& entries, int64_t min_count, int64_t total,
    double phi) {
  DSKETCH_CHECK(phi >= 0.0 && phi < 1.0);
  const double threshold = phi * static_cast<double>(total);
  std::vector<FrequentItem> out;
  for (const SketchEntry& e : entries) {  // entries are descending
    if (static_cast<double>(e.count) <= threshold) break;
    FrequentItem f;
    f.item = e.item;
    f.estimate = e.count;
    f.lower_bound = e.count > min_count ? e.count - min_count : 0;
    f.guaranteed = static_cast<double>(f.lower_bound) > threshold;
    out.push_back(f);
  }
  return out;
}

// The first k bins in Entries() order, read in place: the rest of the
// sketch is never copied.
std::vector<SketchEntry> FirstK(const SpaceSavingCore& core, size_t k) {
  DSKETCH_CHECK(k > 0);
  std::vector<SketchEntry> out;
  out.reserve(std::min(k, core.size()));
  core.ForEachEntry([&](uint64_t item, int64_t count) {
    out.push_back({item, count});
    return out.size() < k;
  });
  return out;
}

}  // namespace

std::vector<FrequentItem> FrequentItems(const DeterministicSpaceSaving& sketch,
                                        double phi) {
  return FrequentFromEntries(sketch.Entries(), sketch.MinCount(),
                             sketch.TotalCount(), phi);
}

std::vector<FrequentItem> FrequentItems(const UnbiasedSpaceSaving& sketch,
                                        double phi) {
  return FrequentFromEntries(sketch.Entries(), sketch.MinCount(),
                             sketch.TotalCount(), phi);
}

std::vector<SketchEntry> TopK(const DeterministicSpaceSaving& sketch,
                              size_t k) {
  return FirstK(sketch.core(), k);
}

std::vector<SketchEntry> TopK(const UnbiasedSpaceSaving& sketch, size_t k) {
  return FirstK(sketch.core(), k);
}

}  // namespace dsketch
