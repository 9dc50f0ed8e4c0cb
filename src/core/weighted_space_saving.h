// Weighted (real-valued) Unbiased Space Saving — the §5.3 generalization.
//
// The reduction step of Unbiased Space Saving is a PPS sample over the two
// smallest bins. Generalizing the update to "insert the new row as its own
// bin, then PPS-collapse the two smallest bins until m remain" yields a
// sketch that accepts arbitrary positive weights while remaining unbiased
// (Theorem 2) and preserving the total weight exactly. For unit weights
// the rule coincides bin-for-bin with integer Unbiased Space Saving.
//
// Updates are O(log m) (binary heap) versus O(1) for the unit-weight
// sketch — the trade-off the paper notes for real-valued counters.

#ifndef DSKETCH_CORE_WEIGHTED_SPACE_SAVING_H_
#define DSKETCH_CORE_WEIGHTED_SPACE_SAVING_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/sketch_entry.h"
#include "util/flat_map.h"
#include "util/random.h"
#include "util/span.h"

namespace dsketch {

/// Unbiased Space Saving over weighted rows.
class WeightedSpaceSaving {
 public:
  /// Sketch with `capacity` bins; `seed` drives the PPS label draws.
  explicit WeightedSpaceSaving(size_t capacity, uint64_t seed = 1);

  /// Processes one row carrying `weight` (> 0) for `item`.
  void Update(uint64_t item, double weight);

  /// Processes `items` in stream order, each row carrying `weight`.
  /// Bit-for-bit identical to per-row Update (pre-hashing + prefetch).
  void UpdateBatch(Span<const uint64_t> items, double weight = 1.0);

  /// Row-aligned batch: items[i] carries weights[i] (sizes must match).
  void UpdateBatch(Span<const uint64_t> items, Span<const double> weights);

  /// Batch of (item, weight) rows, as shipped through the sharded
  /// front-end's queues. Bit-for-bit identical to per-row Update.
  void UpdateBatch(Span<const WeightedEntry> rows);

  /// Unbiased estimate of `item`'s total weight (0 when untracked).
  double EstimateWeight(uint64_t item) const;

  /// True if `item` currently labels a bin.
  bool Contains(uint64_t item) const { return index_.Find(item) != nullptr; }

  /// Weight of the smallest bin (0 while not full).
  double MinWeight() const;

  /// Sum of all processed weights; preserved exactly (up to fp rounding).
  double TotalWeight() const { return total_; }

  /// Number of bins (m).
  size_t capacity() const { return capacity_; }

  /// Number of labeled bins.
  size_t size() const { return heap_.size(); }

  /// Labeled bins in descending weight order.
  std::vector<WeightedEntry> Entries() const;

  /// Calls `visit(item, weight)` on each labeled bin in place, in heap
  /// order (not Entries() order), and stops as soon as `visit` returns
  /// false.
  template <typename Visit>
  void ForEachEntry(Visit&& visit) const {
    for (const HeapNode& node : heap_) {
      if (!visit(items_[node.id], node.weight)) return;
    }
  }

  /// Multiplies every bin weight (and the running total) by `factor` > 0.
  /// Used by time-decayed aggregation to renormalize counters.
  void Scale(double factor);

  /// Replaces contents with `entries` (≤ capacity, distinct labels).
  void LoadEntries(const std::vector<WeightedEntry>& entries);

 private:
  // Shared batch loop: per-row weights when `weights` is row-aligned with
  // `items`, otherwise `shared_weight` for every row.
  void UpdateBatch(Span<const uint64_t> items, Span<const double> weights,
                   double shared_weight);

  // Update body with the item's index hash precomputed (MixedHash(item)).
  void UpdateHashed(uint64_t item, uint64_t hash, double weight);

  // Min-heap by weight over bin ids. A bin keeps its id while it moves
  // through the heap, so a sift step rewrites pos_ (an array), not the
  // label index; only a relabel touches index_.
  struct HeapNode {
    double weight;
    uint32_t id;
  };
  void SiftUp(size_t i);
  void SiftDown(size_t i);
  void Place(size_t i, HeapNode node);

  size_t capacity_;
  std::vector<HeapNode> heap_;
  std::vector<uint64_t> items_;  // bin id -> label
  std::vector<uint32_t> pos_;    // bin id -> heap position
  FlatMap<uint32_t> index_;      // label -> bin id
  double total_ = 0.0;
  Rng rng_;
};

/// Subset-sum estimate over the weighted sketch with the eq. 5 variance
/// analogue V̂ar = MinWeight()^2 * max(1, C_S).
struct WeightedSubsetSum {
  double estimate = 0.0;
  double variance = 0.0;
  uint64_t items_in_sample = 0;
};

/// Estimates the total weight of all items satisfying `pred`.
template <typename Pred>
WeightedSubsetSum EstimateSubsetSum(const WeightedSpaceSaving& sketch,
                                    Pred pred) {
  WeightedSubsetSum out;
  for (const WeightedEntry& e : sketch.Entries()) {
    if (pred(e.item)) {
      out.estimate += e.weight;
      ++out.items_in_sample;
    }
  }
  double floor_cs =
      static_cast<double>(out.items_in_sample > 0 ? out.items_in_sample : 1);
  out.variance = sketch.MinWeight() * sketch.MinWeight() * floor_cs;
  return out;
}

}  // namespace dsketch

#endif  // DSKETCH_CORE_WEIGHTED_SPACE_SAVING_H_
