#include "shard/sharded_sketch.h"

#include <unordered_map>

#include "core/merge.h"

namespace dsketch {

namespace {

template <typename S>
std::vector<const S*> Pointers(const std::vector<S>& shards) {
  std::vector<const S*> ptrs;
  ptrs.reserve(shards.size());
  for (const S& s : shards) ptrs.push_back(&s);
  return ptrs;
}

}  // namespace

UnbiasedSpaceSaving MergeShards(
    const std::vector<const UnbiasedSpaceSaving*>& shards, size_t capacity,
    uint64_t seed) {
  DSKETCH_CHECK(!shards.empty());
  return MergeAll(shards, capacity, seed);
}

WeightedSpaceSaving MergeShards(const std::vector<WeightedSpaceSaving>& shards,
                                size_t capacity, uint64_t seed) {
  return MergeShards(Pointers(shards), capacity, seed);
}

WeightedSpaceSaving MergeShards(
    const std::vector<const WeightedSpaceSaving*>& shards, size_t capacity,
    uint64_t seed) {
  DSKETCH_CHECK(!shards.empty());
  // Combine duplicate labels across shards, then reduce once — the
  // weighted analogue of MergeAll's single final pairwise reduction.
  std::unordered_map<uint64_t, double> sums;
  for (const WeightedSpaceSaving* shard : shards) {
    for (const WeightedEntry& e : shard->Entries()) sums[e.item] += e.weight;
  }
  std::vector<WeightedEntry> combined;
  combined.reserve(sums.size());
  for (const auto& [item, weight] : sums) {
    if (weight > 0.0) combined.push_back({item, weight});
  }
  return WeightedSketchFromEntries(std::move(combined), capacity, seed);
}

}  // namespace dsketch
