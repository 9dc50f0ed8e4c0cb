#include "core/merge.h"

#include <algorithm>
#include <unordered_map>

#include "core/entry_order.h"
#include "util/logging.h"

namespace dsketch {

std::vector<SketchEntry> CombineEntries(const std::vector<SketchEntry>& a,
                                        const std::vector<SketchEntry>& b) {
  std::vector<SketchEntry> out;
  out.reserve(a.size() + b.size());
  out.insert(out.end(), a.begin(), a.end());
  out.insert(out.end(), b.begin(), b.end());
  CombineByItem(out);
  return out;
}

std::vector<SketchEntry> ReducePairwise(std::vector<SketchEntry> entries,
                                        size_t target, Rng& rng) {
  DSKETCH_CHECK(target > 0);
  if (entries.size() <= target) return entries;

  // Canonical order: the collapse sequence (and therefore the RNG draw
  // sequence) depends only on the (item, count) multiset, never on the
  // caller's entry order — so a merge assembled from cached partials
  // reproduces a from-scratch merge bit-for-bit given the same seed.
  SortEntries(entries, EntryOrder::kCanonical);

  // Heap-free two-queue collapse (the classic linear-time Huffman
  // construction): originals are consumed in ascending order, and bins
  // produced by collapses emerge with non-decreasing counts, so the two
  // queue fronts always hold the two candidates for "current smallest".
  // Ties prefer the original queue, which fixes the collapse order.
  const size_t n = entries.size();
  std::vector<SketchEntry> merged;
  merged.reserve(n - target);
  size_t i = 0;  // next unconsumed original
  size_t j = 0;  // next unconsumed merged bin
  auto take_smallest = [&]() -> SketchEntry {
    if (i < n && (j >= merged.size() || entries[i].count <= merged[j].count)) {
      return entries[i++];
    }
    return merged[j++];
  };
  for (size_t live = n; live > target; --live) {
    SketchEntry a = take_smallest();  // smallest
    SketchEntry b = take_smallest();  // second smallest
    int64_t combined = a.count + b.count;
    // Keep the label of the *larger* bin with probability c2/(c1+c2):
    // a PPS draw between the two collapsed bins (unbiased per Theorem 2).
    // combined == 0 can only happen for two zero-count bins; keep either.
    bool keep_larger =
        combined == 0 ||
        rng.NextDouble() * static_cast<double>(combined) <
            static_cast<double>(b.count);
    merged.push_back({keep_larger ? b.item : a.item, combined});
  }

  std::vector<SketchEntry> out;
  out.reserve(target);
  for (; i < n; ++i) out.push_back(entries[i]);
  for (; j < merged.size(); ++j) out.push_back(merged[j]);
  return out;
}

std::vector<WeightedEntry> ReducePriority(
    const std::vector<SketchEntry>& entries, size_t target, Rng& rng) {
  DSKETCH_CHECK(target > 0);
  if (entries.size() <= target) {
    std::vector<WeightedEntry> out;
    out.reserve(entries.size());
    for (const SketchEntry& e : entries) {
      out.push_back({e.item, static_cast<double>(e.count)});
    }
    return out;
  }

  struct Prioritized {
    double priority;
    size_t index;
  };
  std::vector<Prioritized> pris;
  pris.reserve(entries.size());
  for (size_t i = 0; i < entries.size(); ++i) {
    double u = rng.NextDoublePositive();
    pris.push_back({static_cast<double>(entries[i].count) / u, i});
  }
  // Partition so the `target` largest priorities come first; the threshold
  // tau is the (target+1)-th largest priority.
  std::nth_element(pris.begin(), pris.begin() + static_cast<long>(target),
                   pris.end(), [](const Prioritized& a, const Prioritized& b) {
                     return a.priority > b.priority;
                   });
  double tau = pris[target].priority;

  std::vector<WeightedEntry> out;
  out.reserve(target);
  for (size_t i = 0; i < target; ++i) {
    const SketchEntry& e = entries[pris[i].index];
    out.push_back({e.item, std::max(static_cast<double>(e.count), tau)});
  }
  return out;
}

std::vector<SketchEntry> ReduceMisraGries(std::vector<SketchEntry> entries,
                                          size_t target) {
  DSKETCH_CHECK(target > 0);
  if (entries.size() <= target) return entries;
  // Threshold = (target+1)-th largest count.
  std::nth_element(entries.begin(), entries.begin() + static_cast<long>(target),
                   entries.end(), [](const SketchEntry& a, const SketchEntry& b) {
                     return a.count > b.count;
                   });
  int64_t threshold = entries[target].count;
  std::vector<SketchEntry> out;
  out.reserve(target);
  for (size_t i = 0; i < target; ++i) {
    int64_t c = entries[i].count - threshold;
    if (c > 0) out.push_back({entries[i].item, c});
  }
  return out;
}

UnbiasedSpaceSaving SketchFromEntries(std::vector<SketchEntry> combined,
                                      size_t capacity, uint64_t seed) {
  // Canonical order even when no reduction runs: the loaded bin order
  // (and so the sketch's internal layout) is a function of the entry
  // multiset, not of how the caller assembled it. Pre-sorted input
  // (e.g. a window's closed-span sums patched with its open epoch) skips
  // straight to the reduction.
  SortEntries(combined, EntryOrder::kCanonical);
  Rng rng(seed);
  std::vector<SketchEntry> reduced =
      ReducePairwise(std::move(combined), capacity, rng);
  UnbiasedSpaceSaving out(capacity, seed);
  out.core().LoadEntries(std::move(reduced));
  return out;
}

WeightedSpaceSaving WeightedSketchFromEntries(
    std::vector<WeightedEntry> combined, size_t capacity, uint64_t seed) {
  auto canonical = [](const WeightedEntry& a, const WeightedEntry& b) {
    return a.weight != b.weight ? a.weight < b.weight : a.item < b.item;
  };
  if (!std::is_sorted(combined.begin(), combined.end(), canonical)) {
    std::sort(combined.begin(), combined.end(), canonical);
  }
  Rng rng(seed);
  std::vector<WeightedEntry> reduced =
      ReducePairwiseWeighted(std::move(combined), capacity, rng);
  WeightedSpaceSaving out(capacity, seed);
  out.LoadEntries(reduced);
  return out;
}

UnbiasedSpaceSaving Merge(const UnbiasedSpaceSaving& a,
                          const UnbiasedSpaceSaving& b, size_t capacity,
                          uint64_t seed) {
  return SketchFromEntries(CombineEntries(a.Entries(), b.Entries()), capacity,
                           seed);
}

DeterministicSpaceSaving Merge(const DeterministicSpaceSaving& a,
                               const DeterministicSpaceSaving& b,
                               size_t capacity, uint64_t seed) {
  std::vector<SketchEntry> combined = CombineEntries(a.Entries(), b.Entries());
  std::vector<SketchEntry> reduced = ReduceMisraGries(std::move(combined),
                                                      capacity);
  DeterministicSpaceSaving out(capacity, seed);
  out.core().LoadEntries(std::move(reduced));
  return out;
}

std::vector<WeightedEntry> ReducePairwiseWeighted(
    std::vector<WeightedEntry> entries, size_t target, Rng& rng) {
  DSKETCH_CHECK(target > 0);
  if (entries.size() <= target) return entries;

  // Same canonical order + two-queue collapse as ReducePairwise: the
  // reduction is a function of the (item, weight) multiset and the seed.
  auto canonical = [](const WeightedEntry& a, const WeightedEntry& b) {
    return a.weight != b.weight ? a.weight < b.weight : a.item < b.item;
  };
  if (!std::is_sorted(entries.begin(), entries.end(), canonical)) {
    std::sort(entries.begin(), entries.end(), canonical);
  }

  const size_t n = entries.size();
  std::vector<WeightedEntry> merged;
  merged.reserve(n - target);
  size_t i = 0;
  size_t j = 0;
  auto take_smallest = [&]() -> WeightedEntry {
    if (i < n &&
        (j >= merged.size() || entries[i].weight <= merged[j].weight)) {
      return entries[i++];
    }
    return merged[j++];
  };
  for (size_t live = n; live > target; --live) {
    WeightedEntry a = take_smallest();
    WeightedEntry b = take_smallest();
    double combined = a.weight + b.weight;
    bool keep_larger =
        combined == 0.0 || rng.NextDouble() * combined < b.weight;
    merged.push_back({keep_larger ? b.item : a.item, combined});
  }

  std::vector<WeightedEntry> out;
  out.reserve(target);
  for (; i < n; ++i) out.push_back(entries[i]);
  for (; j < merged.size(); ++j) out.push_back(merged[j]);
  return out;
}

WeightedSpaceSaving Merge(const WeightedSpaceSaving& a,
                          const WeightedSpaceSaving& b, size_t capacity,
                          uint64_t seed) {
  std::unordered_map<uint64_t, double> sums;
  for (const WeightedEntry& e : a.Entries()) sums[e.item] += e.weight;
  for (const WeightedEntry& e : b.Entries()) sums[e.item] += e.weight;
  std::vector<WeightedEntry> combined;
  combined.reserve(sums.size());
  for (const auto& [item, weight] : sums) combined.push_back({item, weight});
  return WeightedSketchFromEntries(std::move(combined), capacity, seed);
}

namespace {

// Every part's labeled bins, read in place into one buffer, in part
// order. The reduction canonicalizes the order, so it only has to be
// deterministic.
template <typename Sketch, typename Entry>
std::vector<Entry> GatherEntries(const std::vector<const Sketch*>& parts) {
  DSKETCH_CHECK(!parts.empty());
  size_t total = 0;
  for (const Sketch* s : parts) {
    DSKETCH_CHECK(s != nullptr);
    total += s->size();
  }
  std::vector<Entry> out;
  out.reserve(total);
  for (const Sketch* s : parts) {
    s->ForEachEntry([&out](uint64_t item, auto value) {
      out.push_back({item, value});
      return true;
    });
  }
  return out;
}

}  // namespace

UnbiasedSpaceSaving MergeAll(
    const std::vector<const UnbiasedSpaceSaving*>& sketches, size_t capacity,
    uint64_t seed, PartLabels labels) {
  std::vector<SketchEntry> combined =
      GatherEntries<UnbiasedSpaceSaving, SketchEntry>(sketches);
  if (labels == PartLabels::kMayRepeat) CombineByItem(combined);
  return SketchFromEntries(std::move(combined), capacity, seed);
}

WeightedSpaceSaving MergeAll(
    const std::vector<const WeightedSpaceSaving*>& sketches, size_t capacity,
    uint64_t seed, PartLabels labels) {
  std::vector<WeightedEntry> combined =
      GatherEntries<WeightedSpaceSaving, WeightedEntry>(sketches);
  if (labels == PartLabels::kMayRepeat) {
    // A label's weights are summed in part order.
    std::unordered_map<uint64_t, double> sums;
    for (const WeightedEntry& e : combined) sums[e.item] += e.weight;
    combined.clear();
    for (const auto& [item, weight] : sums) combined.push_back({item, weight});
  }
  combined.erase(std::remove_if(combined.begin(), combined.end(),
                                [](const WeightedEntry& e) {
                                  return !(e.weight > 0.0);
                                }),
                 combined.end());
  return WeightedSketchFromEntries(std::move(combined), capacity, seed);
}

}  // namespace dsketch
