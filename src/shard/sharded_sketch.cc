#include "shard/sharded_sketch.h"

namespace dsketch {

UnbiasedSpaceSaving MergeShards(
    const std::vector<const UnbiasedSpaceSaving*>& shards, size_t capacity,
    uint64_t seed, PartLabels labels) {
  return MergeAll(shards, capacity, seed, labels);
}

WeightedSpaceSaving MergeShards(
    const std::vector<const WeightedSpaceSaving*>& shards, size_t capacity,
    uint64_t seed, PartLabels labels) {
  return MergeAll(shards, capacity, seed, labels);
}

}  // namespace dsketch
