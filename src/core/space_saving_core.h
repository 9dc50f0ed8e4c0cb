// Shared engine for the Space Saving sketch family (paper Algorithm 1).
//
// The engine maintains m (item, count) bins and supports the single update
// rule both variants share:
//
//   * tracked item  -> increment its bin;
//   * untracked item -> increment a minimum-count bin and replace its label
//     with the new item with probability p, where
//       p = 1               (Deterministic Space Saving, Metwally et al.)
//       p = 1/(Nmin + 1)    (Unbiased Space Saving, the paper's sketch)
//
// Everything is O(1) per update. Instead of the linked-list "stream
// summary" structure of Metwally et al., bins live in an array kept sorted
// by count, partitioned into one contiguous [begin, end) slot range per
// distinct count. As in the stream summary, each bin points straight at
// its count range: every slot position carries the id of its range in a
// small pool, so the update path does no hash lookup to find it.
// Incrementing a bin swaps it to the end of its count range c and moves
// it into range c + 1, which starts right above it when it exists (else
// the bin opens it) — an equivalent formulation that is cache-friendlier
// and, importantly here, supports uniform-random selection among minimum
// bins in O(1) (the paper's analysis assumes random tie-breaking, §6.1).

#ifndef DSKETCH_CORE_SPACE_SAVING_CORE_H_
#define DSKETCH_CORE_SPACE_SAVING_CORE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/sketch_entry.h"
#include "util/flat_map.h"
#include "util/huge_page_allocator.h"
#include "util/random.h"
#include "util/span.h"

namespace dsketch {

/// Label-replacement rule for the minimum bin (see file comment).
enum class LabelPolicy {
  kDeterministic,  ///< always relabel (classic Space Saving)
  kUnbiased,       ///< relabel with probability 1/(Nmin+1) (the paper)
};

/// How to choose among several bins tied at the minimum count.
enum class TieBreak {
  kRandom,      ///< uniform random minimum bin (paper's analysis, default)
  kFirstSlot,   ///< deterministic choice (reproducible unit tests)
};

/// Engine implementing the Space Saving update; used via the
/// UnbiasedSpaceSaving / DeterministicSpaceSaving wrappers.
class SpaceSavingCore {
 public:
  /// A sketch with `capacity` bins. `seed` drives label replacement and
  /// tie-breaking; runs with equal seeds are bit-for-bit reproducible.
  SpaceSavingCore(size_t capacity, LabelPolicy policy, uint64_t seed = 1,
                  TieBreak tie_break = TieBreak::kRandom);

  /// Processes one row whose unit-of-analysis label is `item`.
  void Update(uint64_t item);

  /// Processes `items` in stream order. Bit-for-bit identical to calling
  /// Update once per row (same bins, same RNG stream), but hashes each
  /// key a few rows ahead and prefetches its index probe line, so the
  /// per-row hash-table miss latencies overlap.
  void UpdateBatch(Span<const uint64_t> items);

  /// Estimated count for `item`: its bin count, or 0 if untracked.
  /// Unbiased under LabelPolicy::kUnbiased (paper Theorem 1).
  int64_t EstimateCount(uint64_t item) const;

  /// True if `item` currently labels a bin.
  bool Contains(uint64_t item) const { return index_.Find(item) != nullptr; }

  /// Count of the minimum bin (0 while the sketch has empty bins).
  int64_t MinCount() const { return slots_.front().count; }

  /// Rows processed so far; the bins always sum to exactly this value.
  int64_t TotalCount() const { return total_; }

  /// Number of bins (m).
  size_t capacity() const { return slots_.size(); }

  /// Number of bins currently holding a label.
  size_t size() const { return index_.size(); }

  /// All labeled bins, sorted by descending count (a copy; ForEachEntry
  /// walks the same bins in place).
  std::vector<SketchEntry> Entries() const;

  /// Calls `visit(item, count)` on each labeled bin in Entries() order,
  /// in place, and stops as soon as `visit` returns false. The query
  /// reduce (core/subset_sum.h, TopK) reads the bins through this, so a
  /// query copies nothing.
  template <typename Visit>
  void ForEachEntry(Visit&& visit) const {
    // Slots are ascending by count; walk them in reverse.
    for (size_t i = slots_.size(); i > 0; --i) {
      const Slot& s = slots_[i - 1];
      if (s.item != kNoLabel && !visit(s.item, s.count)) return;
    }
  }

  /// Replaces the sketch contents with `entries` (at most `capacity()`,
  /// distinct labels). Used by the merge operations to materialize a
  /// reduced sketch; TotalCount() becomes the sum of the entry counts.
  void LoadEntries(std::vector<SketchEntry> entries);

  /// The label-replacement policy this sketch was built with.
  LabelPolicy policy() const { return policy_; }

 private:
  struct Slot {
    uint64_t item;  // kNoLabel when the bin has never been labeled
    int64_t count;
  };

  struct Range {
    uint32_t begin;
    uint32_t end;  // exclusive
  };

  static constexpr uint64_t kNoLabel = ~0ULL - 1;
  static constexpr uint32_t kNoIndex = ~0u;  // bin holds no label

  // Update body with the item's index hash precomputed (MixedHash(item)).
  void UpdateHashed(uint64_t item, uint64_t hash);

  // The untracked-item branch of the update rule: pick a minimum bin,
  // maybe adopt the label, increment.
  void ApplyUntracked(uint64_t item, uint64_t hash);

  // Moves slot `i` (count c) to the top of its count range and bumps it to
  // c+1, moving it into the c+1 range (and fixing the cached min-range
  // end); returns the slot's final position.
  uint32_t IncrementSlot(uint32_t i);

  // A range id for a new count range: a retired one, else a fresh one.
  // May grow pool_, so no Range& may be held across it.
  uint32_t NewRange(uint32_t begin, uint32_t end);

  void SwapSlots(uint32_t a, uint32_t b);

  LabelPolicy policy_;
  TieBreak tie_break_;
  HeapArray<Slot> slots_;         // ascending by count
  FlatMap<uint32_t> index_;       // item -> slot position
  // Backpointer per bin: the index_ table position holding that bin's
  // label (kNoIndex for unlabeled bins). Lets the constant bin swaps of
  // IncrementSlot update the index with one direct store each instead of
  // a probe walk per swap partner, and lets ApplyUntracked erase the
  // evicted victim's index entry without re-hashing and re-probing it.
  // index_ is pre-sized for `capacity` keys, so it never rehashes and
  // positions only move on erases — which report every backward-shift
  // relocation through EraseAtPos's hook, fixing this array in O(1).
  HeapArray<uint32_t> index_pos_;
  // Count ranges by id. rid_[i] is the id of slot i's range; ids are per
  // position, so SwapSlots within a range leaves them alone. The pool
  // holds one live entry per distinct count (it grows on demand, and an
  // emptied range's id is reused), far below capacity for skewed streams.
  HeapArray<uint32_t> rid_;
  std::vector<Range> pool_;
  std::vector<uint32_t> free_ids_;  // retired pool_ ids
  // End of the minimum count range (its begin is always 0). Maintained
  // incrementally by IncrementSlot/LoadEntries so the untracked-item path
  // needs no range lookup to tie-break among minimum bins.
  uint32_t min_range_end_ = 0;
  int64_t total_ = 0;
  Rng rng_;
};

}  // namespace dsketch

#endif  // DSKETCH_CORE_SPACE_SAVING_CORE_H_
