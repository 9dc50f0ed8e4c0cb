// First-class time-windowed sketching: an epoch ring of mergeable
// sketches with sliding-window and exponentially-decayed queries.
//
// A WindowedSketch<S> partitions the stream into epochs (logical time —
// the caller advances explicitly — or row-count time via
// rows_per_epoch) and keeps one sketch of type `S` per epoch in a ring
// of the last `window_epochs` epochs. Queries over "the last k epochs"
// merge the k newest ring slots with the same unbiased pairwise-PPS
// reduction the shard layer uses (MergeShards, paper §5.3 / Theorem 2),
// so a window estimate behaves exactly as if one sketch had seen just
// those epochs' rows — the classic mergeable-sketch window
// construction, promoted from bench/epoch_common.h's hand-merged form
// into a library citizen.
//
// Decayed mode (half_life_epochs > 0) additionally adds every *closed*
// epoch, once, to a forward-decay accumulator (core/DecayedSpaceSaving
// with epoch stamps as its clock — past 2^53 they round to double):
// QueryDecayed() answers exponentially time-decayed subset sums over the
// entire stream, epoch e weighing 2^(-age/half_life), with O(merged
// capacity) state, complementing the ring's sharp cutoff. Sliding
// window = "last W epochs count fully, older count zero"; decay =
// "every epoch counts, geometrically less" — the two standard
// time-scoped weightings.
//
// Query cost: QueryWindow is backed by two caches. A binary merge tree
// over aligned epoch spans caches, per (level, block) node, the exact
// item-sorted entry sums of its closed epochs (integer addition is
// associative, closed epochs are immutable), so the closed part of any
// last-k window is O(log W) node partials combined by linear merges. A
// closed-span memo keeps, per last_k, that combination in the canonical
// (count, item) order with a 4-byte item-order index. Ingest writes only
// the open epoch, so the memo survives it: a query patches the open
// epoch's entries in (a binary search per open item, a radix sort of the
// at most epoch_capacity patched entries, one linear merge) and hands the
// already-canonical result to the reduction. Advancing the window moves
// every last-k window to a new closed span, which the next query builds
// from the tree, and evicts just the nodes that fell off the ring's left
// edge. A merged fleet ring survives ingest the same way: MergeShardsFrom
// refreshes it in place through ReplaceTail, which re-merges only the
// epochs that can still change and keeps the nodes and memo entries
// below them. QueryWindowUncached keeps the from-scratch path for
// benchmarks and cross-checks.
//
// Determinism: epoch e's sketch is seeded seed + e and the accumulator
// is seeded seed and takes the closed epochs in order, so a fixed (seed,
// stream, epoch stamps) triple reproduces the ring, the accumulator,
// and every window merge bit-for-bit. Cached and uncached queries are
// bit-identical too: both feed the same exact entry sums into the same
// canonical-order pairwise reduction (core/merge's SketchFromEntries)
// with the same merge seed — which is what lets window_test cross-check
// QueryWindow against the hand-merged construction exactly.

#ifndef DSKETCH_WINDOW_WINDOWED_SKETCH_H_
#define DSKETCH_WINDOW_WINDOWED_SKETCH_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <iterator>
#include <limits>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "core/decayed_space_saving.h"
#include "core/entry_order.h"
#include "core/merge.h"
#include "core/sketch_entry.h"
#include "core/unbiased_space_saving.h"
#include "core/weighted_space_saving.h"
#include "obs/metrics.h"
#include "shard/sharded_sketch.h"
#include "util/logging.h"
#include "util/span.h"

namespace dsketch {

/// Largest ring length a WindowedSketch accepts (and the window-snapshot
/// wire codec restores) — epochs are coarse query units, not rows, so a
/// few thousand covers every realistic retention policy while keeping
/// hostile ring claims cheap to reject.
inline constexpr uint64_t kMaxWindowEpochs = 4096;

/// Largest epoch stamp the service decoder and the window wire codec
/// accept. Epochs are a coarse monotone clock, so 2^62 accommodates even
/// nanosecond unix timestamps while keeping epoch/seed arithmetic far
/// from uint64 wraparound on hostile stamps.
inline constexpr uint64_t kMaxEpochStamp = uint64_t{1} << 62;

/// Configuration of the epoch ring.
struct WindowedSketchOptions {
  size_t window_epochs = 8;     ///< ring length W (>= 1, <= kMaxWindowEpochs)
  size_t epoch_capacity = 1024; ///< bins per per-epoch sketch
  size_t merged_capacity = 4096;  ///< bins of window merges + decay state
  /// > 0: auto-advance every N rows (row-count time). Applies to the
  /// unstamped Update/UpdateBatch path only — epoch-stamped rows carry
  /// their own clock, so the two are mutually exclusive.
  uint64_t rows_per_epoch = 0;
  double half_life_epochs = 0.0;  ///< > 0: maintain the decayed accumulator
  uint64_t seed = 1;            ///< epoch e's sketch is seeded seed + e
};

/// One (item, epoch) row, as shipped through the sharded front-end's
/// queues when a ShardedSketch hosts a windowed sketch.
struct EpochRow {
  uint64_t item = 0;
  uint64_t epoch = 0;
};

// Window-layer telemetry (obs/metrics.h), shared by every windowed
// sketch in the process: merge-cache effectiveness (node hits/misses
// and the level partial reuse lands at), closed-span memo effectiveness
// (the combine_memo families), and fast-forward jumps.
// Handles are function-local statics, so the query/ingest paths only
// touch relaxed atomics.
namespace window_metrics {

inline obs::Counter& NodeCacheHits() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "dsketch_window_node_cache_hits_total");
  return c;
}

inline obs::Counter& NodeCacheMisses() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "dsketch_window_node_cache_misses_total");
  return c;
}

// Tree level a node-cache hit reused (0 = a single closed epoch,
// higher = wider aligned spans): the depth distribution of partial
// reuse, the quantity the hierarchical cache exists to maximize.
inline obs::Histogram& NodeReuseLevel() {
  static obs::Histogram& hist = obs::MetricsRegistry::Global().GetHistogram(
      "dsketch_window_node_reuse_level");
  return hist;
}

inline obs::Counter& CombineMemoHits() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "dsketch_window_combine_memo_hits_total");
  return c;
}

inline obs::Counter& CombineMemoMisses() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "dsketch_window_combine_memo_misses_total");
  return c;
}

// Merged-ring epochs rebuilt by the epoch-aligned shard merge: a full
// merge counts the whole window, an in-place refresh only the epochs
// that could still change. Growth of W per refresh means something (a
// freshly absorbed remote, a shard waking after idle epochs) forced a
// full re-merge.
inline obs::Counter& EpochsRemerged() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "dsketch_window_epochs_remerged_total");
  return c;
}

inline obs::Counter& FastForwards() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "dsketch_window_fast_forward_total");
  return c;
}

}  // namespace window_metrics

/// Epoch ring over sketch type `S` (UnbiasedSpaceSaving by default;
/// anything with S(capacity, seed), Update, UpdateBatch, Entries() and a
/// MergeShards pointer overload works).
template <typename S>
class WindowedSketch {
 public:
  /// One ring slot: the epoch id and its sketch.
  struct EpochSlot {
    uint64_t epoch = 0;
    S sketch;

    EpochSlot(uint64_t e, S s) : epoch(e), sketch(std::move(s)) {}
  };

  explicit WindowedSketch(const WindowedSketchOptions& options)
      : options_(options) {
    DSKETCH_CHECK(options.window_epochs > 0 &&
                  options.window_epochs <= kMaxWindowEpochs);
    DSKETCH_CHECK(options.epoch_capacity > 0);
    DSKETCH_CHECK(options.merged_capacity > 0);
    DSKETCH_CHECK(ValidHalfLife(options.half_life_epochs));
    if (options.half_life_epochs > 0.0) {
      decayed_.emplace(options.merged_capacity, options.half_life_epochs,
                       options.seed);
    }
    ring_.emplace_back(0, S(options.epoch_capacity, options.seed));
  }

  /// Processes one row in the open epoch; auto-advances first in
  /// row-count mode.
  void Update(uint64_t item) {
    MaybeAutoAdvance();
    ring_.back().sketch.Update(item);
    ++rows_in_epoch_;
    ++total_rows_;
  }

  /// Batch form of Update (same auto-advance semantics per row chunk).
  void UpdateBatch(Span<const uint64_t> items) {
    size_t pos = 0;
    while (pos < items.size()) {
      MaybeAutoAdvance();
      size_t len = items.size() - pos;
      if (options_.rows_per_epoch > 0) {
        const uint64_t room = options_.rows_per_epoch - rows_in_epoch_;
        if (static_cast<uint64_t>(len) > room) {
          len = static_cast<size_t>(room);
        }
      }
      ring_.back().sketch.UpdateBatch(
          Span<const uint64_t>(items.data() + pos, len));
      rows_in_epoch_ += len;
      total_rows_ += len;
      pos += len;
    }
  }

  /// Batch of epoch-stamped rows (the sharded hosting path). Stamps at
  /// or before the open epoch land in it (late rows are credited to the
  /// open epoch — a closed ring slot is immutable); a larger stamp
  /// advances the ring to it first. Stamps are the clock here, so
  /// row-count time must be off (MakeShardedWindowed enforces this for
  /// the sharded fleet).
  void UpdateBatch(Span<const EpochRow> rows) {
    DSKETCH_CHECK(options_.rows_per_epoch == 0);
    size_t pos = 0;
    while (pos < rows.size()) {
      const uint64_t epoch = rows[pos].epoch;
      if (epoch > CurrentEpoch()) AdvanceTo(epoch);
      size_t end = pos;
      batch_.clear();
      while (end < rows.size() && rows[end].epoch <= CurrentEpoch()) {
        batch_.push_back(rows[end].item);
        ++end;
      }
      ring_.back().sketch.UpdateBatch(
          Span<const uint64_t>(batch_.data(), batch_.size()));
      rows_in_epoch_ += batch_.size();
      total_rows_ += batch_.size();
      pos = end;
    }
  }

  /// Closes the open epoch and opens the next one. Slots older than the
  /// window fall off the ring; in decayed mode the closed epoch joins
  /// the accumulator first, so its mass survives (decayed) after the
  /// ring forgets it.
  void Advance() { AdvanceTo(CurrentEpoch() + 1); }

  /// Advances the ring to `epoch` (no-op when not ahead of the open
  /// epoch). Skipped epochs are closed empty. Jumps past the whole
  /// window are O(window), not O(delta): an arbitrary stamp (a unix
  /// timestamp, or a hostile 2^64-1) never spins per skipped epoch.
  void AdvanceTo(uint64_t epoch) {
    if (epoch <= CurrentEpoch()) return;
    if (epoch - CurrentEpoch() > options_.window_epochs) {
      FastForwardTo(epoch);
      return;
    }
    while (CurrentEpoch() < epoch) {
      CloseEpoch();
      ring_.emplace_back(CurrentEpoch() + 1,
                         S(options_.epoch_capacity,
                           options_.seed + CurrentEpoch() + 1));
      if (ring_.size() > options_.window_epochs) ring_.pop_front();
      rows_in_epoch_ = 0;
    }
    // Closed slots are immutable, so existing tree nodes stay valid —
    // only spans that fell off the ring's left edge are dropped.
    EvictNodes();
  }

  /// Unbiased merged view of the newest min(last_k, ring) epochs with
  /// `capacity` bins, reduced with `merge_seed` (single final pairwise
  /// reduction — identical to MergeShards over the same epoch sketches).
  /// last_k == 0 means the full ring. Assembled from the memoized
  /// closed-span sums patched with the open epoch's live entries,
  /// bit-identical to QueryWindowUncached.
  S QueryWindow(size_t last_k, size_t capacity, uint64_t merge_seed) const {
    if (last_k == 0 || last_k > ring_.size()) last_k = ring_.size();
    return SketchFromEntries(WindowCombined(last_k), capacity, merge_seed);
  }

  /// QueryWindow with the configured merged capacity and a merge seed
  /// derived from (seed, open epoch) so repeated queries of the same
  /// state are deterministic.
  S QueryWindow(size_t last_k = 0) const {
    return QueryWindow(last_k, options_.merged_capacity,
                       options_.seed + CurrentEpoch() + 1);
  }

  /// The from-scratch reference path: pairwise-merges the suffix slots
  /// directly (what QueryWindow did before the merge cache existed).
  /// Always bit-identical to QueryWindow on the same state — pinned by
  /// window_test — and kept for benchmarks and cross-checks.
  S QueryWindowUncached(size_t last_k, size_t capacity,
                        uint64_t merge_seed) const {
    if (last_k == 0 || last_k > ring_.size()) last_k = ring_.size();
    std::vector<const S*> parts;
    parts.reserve(last_k);
    for (size_t i = ring_.size() - last_k; i < ring_.size(); ++i) {
      parts.push_back(&ring_[i].sketch);
    }
    return MergeShards(parts, capacity, merge_seed);
  }

  /// Exponentially decayed view over the whole stream as of the open
  /// epoch: closed epochs carry weight 2^(-age/half_life), the open
  /// epoch weight 1. Requires decayed mode.
  WeightedSpaceSaving QueryDecayed() const {
    DSKETCH_CHECK(decay_enabled());
    DecayedSpaceSaving now = *decayed_;
    AddEpoch(ring_.back(), now);
    return now.DecayedSketch(static_cast<double>(CurrentEpoch()));
  }

  /// Id of the open epoch (0-based, monotone).
  uint64_t CurrentEpoch() const { return ring_.back().epoch; }

  /// Rows applied to the open epoch so far.
  uint64_t RowsInCurrentEpoch() const { return rows_in_epoch_; }

  /// Rows applied across all epochs (ring and expired).
  uint64_t TotalRows() const { return total_rows_; }

  /// Ring slots, oldest first (newest is the open epoch).
  const std::deque<EpochSlot>& slots() const { return ring_; }

  /// The closed epochs' decay accumulator (set exactly in decayed mode).
  const std::optional<DecayedSpaceSaving>& decayed_accumulator() const {
    return decayed_;
  }

  /// The accumulator as of the open epoch (what the wire codec ships;
  /// QueryDecayed adds the open epoch). Requires decayed mode.
  WeightedSpaceSaving DecayedClosedView() const {
    DSKETCH_CHECK(decay_enabled());
    return decayed_->DecayedSketch(static_cast<double>(CurrentEpoch()));
  }

  /// Adds `slot`'s entries to `decayed` as rows stamped with its epoch.
  static void AddEpoch(const EpochSlot& slot, DecayedSpaceSaving& decayed) {
    std::vector<WeightedEntry> rows;
    for (const auto& e : slot.sketch.Entries()) {
      if (e.count > 0) rows.push_back({e.item, static_cast<double>(e.count)});
    }
    decayed.UpdateBatch(Span<const WeightedEntry>(rows.data(), rows.size()),
                        static_cast<double>(slot.epoch));
  }

  /// True when the exponentially-decayed accumulator is maintained.
  bool decay_enabled() const { return decayed_.has_value(); }

  /// The ring configuration.
  const WindowedSketchOptions& options() const { return options_; }

  /// Restores internal state from decoded parts (the window wire codec's
  /// entry point; `slots` must be non-empty with strictly increasing
  /// epochs, at most window_epochs of them): ReplaceTail from epoch 0.
  void LoadState(std::deque<EpochSlot> slots,
                 std::optional<DecayedSpaceSaving> decayed,
                 uint64_t rows_in_epoch, uint64_t total_rows) {
    ReplaceTail(0, std::move(slots), std::move(decayed), rows_in_epoch,
                total_rows);
  }

  /// Replaces every slot at epoch `from` or later with `tail` (non-empty,
  /// strictly increasing epochs, all >= `from`) and the decayed state
  /// (present exactly in decayed mode) and row counters outright. Slots
  /// below `from` are kept, minus those that fall outside the window
  /// ending at the tail's newest epoch, and so are the merge-tree nodes
  /// whose span ends below `from`: the caller vouches that those slots
  /// are unchanged. This is how the windowed MergeShardsFrom refreshes a
  /// merged ring in place.
  void ReplaceTail(uint64_t from, std::deque<EpochSlot> tail,
                   std::optional<DecayedSpaceSaving> decayed,
                   uint64_t rows_in_epoch, uint64_t total_rows) {
    DSKETCH_CHECK(!tail.empty() && tail.front().epoch >= from);
    DSKETCH_CHECK(decayed.has_value() == decay_enabled());
    for (size_t i = 1; i < tail.size(); ++i) {
      DSKETCH_CHECK(tail[i - 1].epoch < tail[i].epoch);
    }
    const uint64_t newest = tail.back().epoch;
    while (!ring_.empty() && ring_.back().epoch >= from) ring_.pop_back();
    while (!ring_.empty() &&
           ring_.front().epoch + options_.window_epochs <= newest) {
      ring_.pop_front();
    }
    ring_.insert(ring_.end(), std::make_move_iterator(tail.begin()),
                 std::make_move_iterator(tail.end()));
    DSKETCH_CHECK(ring_.size() <= options_.window_epochs);
    decayed_ = std::move(decayed);
    rows_in_epoch_ = rows_in_epoch;
    total_rows_ = total_rows;
    // Memo entries and nodes reaching `from` summed replaced slots.
    for (auto it = closed_memo_.begin(); it != closed_memo_.end();) {
      it = it->second.hi > from ? closed_memo_.erase(it) : std::next(it);
    }
    EvictNodes(from);
  }

 private:
  // Jump handler for advances past the whole window: every ring slot
  // that survives the jump is newly created and empty, so instead of
  // closing the skipped epochs one at a time the ring is rebuilt
  // directly at `epoch`. Ring state (slot epochs, seeds, emptiness) and
  // the accumulator match the epoch-at-a-time path exactly: the skipped
  // epochs add nothing, and the jump only moves the epoch queries age to.
  void FastForwardTo(uint64_t epoch) {
    window_metrics::FastForwards().Inc();
    CloseEpoch();
    ring_.clear();
    // epoch > window_epochs here (CurrentEpoch() >= 0), so no underflow.
    for (uint64_t e = epoch - options_.window_epochs + 1;; ++e) {
      ring_.emplace_back(e, S(options_.epoch_capacity, options_.seed + e));
      if (e == epoch) break;
    }
    rows_in_epoch_ = 0;
    // Every surviving slot is new (and empty); the old tree is useless.
    ClearMergeCache();
  }

  void MaybeAutoAdvance() {
    if (options_.rows_per_epoch > 0 &&
        rows_in_epoch_ >= options_.rows_per_epoch) {
      Advance();
    }
  }

  // Closes the open epoch into the decayed accumulator, if any.
  void CloseEpoch() {
    if (decayed_.has_value()) AddEpoch(ring_.back(), *decayed_);
  }

  // ---- hierarchical merge cache ----
  //
  // A node (level, block) covers the aligned absolute-epoch span
  // [block·2^level, (block+1)·2^level) and caches the item-sorted exact
  // entry sums of its slots. Exact integer sums are associative, so a
  // node is just the merge of its two children — and because only spans
  // of *closed* epochs are ever requested (the decomposition stops the
  // closed range at open-1), cached nodes can never go stale: ingest
  // touches only the open epoch, and advancing merely expires nodes off
  // the ring's left edge. At most ~2W nodes exist, each bounded by its
  // span's distinct items. Queries are logically const, so the cache
  // lives in mutable members (same single-producer threading contract
  // as the rest of the class).

  static bool ItemLess(const SketchEntry& a, const SketchEntry& b) {
    return a.item < b.item;
  }

  // Merges two item-sorted entry vectors, summing duplicate labels.
  static std::vector<SketchEntry> MergeByItem(
      const std::vector<SketchEntry>& a, const std::vector<SketchEntry>& b) {
    std::vector<SketchEntry> merged;
    merged.reserve(a.size() + b.size());
    std::merge(a.begin(), a.end(), b.begin(), b.end(),
               std::back_inserter(merged), ItemLess);
    CombineByItem(merged);  // already in label order: only sums
    return merged;
  }

  // The slot holding absolute epoch `epoch`, or nullptr (expired epochs,
  // or gaps in a restored ring — both contribute nothing).
  const S* FindSlotSketch(uint64_t epoch) const {
    auto it = std::lower_bound(
        ring_.begin(), ring_.end(), epoch,
        [](const EpochSlot& s, uint64_t e) { return s.epoch < e; });
    return (it != ring_.end() && it->epoch == epoch) ? &it->sketch : nullptr;
  }

  // Cached item-sorted entry sums of the node (level, block); built
  // lazily from its children. Only called for all-closed spans.
  const std::vector<SketchEntry>& NodeEntries(uint32_t level,
                                              uint64_t block) const {
    const auto key = std::make_pair(level, block);
    auto it = node_cache_.find(key);
    if (it != node_cache_.end()) {
      window_metrics::NodeCacheHits().Inc();
      window_metrics::NodeReuseLevel().Record(level);
      return it->second;
    }
    window_metrics::NodeCacheMisses().Inc();
    std::vector<SketchEntry> entries;
    if (level == 0) {
      if (const S* slot = FindSlotSketch(block)) {
        entries = slot->Entries();
        SortEntries(entries, EntryOrder::kByItem);
      }
    } else {
      const std::vector<SketchEntry>& left = NodeEntries(level - 1, 2 * block);
      const std::vector<SketchEntry>& right =
          NodeEntries(level - 1, 2 * block + 1);
      entries = MergeByItem(left, right);
    }
    return node_cache_.emplace(key, std::move(entries)).first->second;
  }

  // The exact item sums of the window's closed epochs [lo, hi), hi the
  // open epoch, in the canonical (count, item) order, plus each entry's
  // canonical position in item order. Rows land only in the open epoch,
  // so an entry outlives ingest: advancing moves lo/hi off its key, and
  // ReplaceTail drops the entries whose span it rewrote.
  struct ClosedSpan {
    uint64_t lo = 0;
    uint64_t hi = 0;
    std::vector<SketchEntry> canonical;
    std::vector<uint32_t> by_item;  // canonical[by_item[r]]: item rank r
  };

  // The closed-span sums of the newest `last_k` slots (1 <= last_k <= ring
  // size), memoized per last_k.
  const ClosedSpan& ClosedSums(size_t last_k) const {
    const uint64_t lo = ring_[ring_.size() - last_k].epoch;
    const uint64_t hi = CurrentEpoch();
    auto it = closed_memo_.find(last_k);
    if (it != closed_memo_.end() && it->second.lo == lo &&
        it->second.hi == hi) {
      window_metrics::CombineMemoHits().Inc();
      return it->second;
    }
    window_metrics::CombineMemoMisses().Inc();
    if (it != closed_memo_.end()) {
      closed_memo_.erase(it);  // stale: free it before building anew
    } else if (closed_memo_.size() >= 8) {
      closed_memo_.clear();
    }
    // Canonical segment decomposition of [lo, hi) into O(log W) aligned
    // nodes.
    std::vector<const std::vector<SketchEntry>*> parts;
    uint64_t l = lo;
    uint64_t r = hi;
    uint32_t level = 0;
    while (l < r) {
      if (l & 1) parts.push_back(&NodeEntries(level, l++));
      if (r & 1) parts.push_back(&NodeEntries(level, --r));
      l >>= 1;
      r >>= 1;
      ++level;
    }
    // Balanced pairwise merges (n log k element moves, not k·n).
    std::vector<std::vector<SketchEntry>> round;
    round.reserve(parts.size() / 2 + 1);
    for (size_t i = 0; i + 1 < parts.size(); i += 2) {
      round.push_back(MergeByItem(*parts[i], *parts[i + 1]));
    }
    if (parts.size() % 2 == 1) round.push_back(*parts.back());
    while (round.size() > 1) {
      std::vector<std::vector<SketchEntry>> next;
      next.reserve(round.size() / 2 + 1);
      for (size_t i = 0; i + 1 < round.size(); i += 2) {
        next.push_back(MergeByItem(round[i], round[i + 1]));
      }
      if (round.size() % 2 == 1) next.push_back(std::move(round.back()));
      round = std::move(next);
    }
    ClosedSpan& span = closed_memo_[last_k];
    span.lo = lo;
    span.hi = hi;
    if (!round.empty()) span.canonical = std::move(round.front());
    span.by_item = CanonicalizeByItem(span.canonical);
    return span;
  }

  // The combined exact entry sums of the newest `last_k` slots in
  // canonical order: the memoized closed span patched with the open
  // epoch. Each open item takes over its closed sum, the patched entries
  // are sorted, and each is spliced in at its binary-searched position
  // while the closed span is copied in runs around the positions they
  // replaced.
  std::vector<SketchEntry> WindowCombined(size_t last_k) const {
    const ClosedSpan& closed = ClosedSums(last_k);
    std::vector<SketchEntry> open = ring_.back().sketch.Entries();
    SortEntries(open, EntryOrder::kByItem);
    std::vector<uint32_t> replaced;
    replaced.reserve(open.size());
    auto first = closed.by_item.begin();
    for (SketchEntry& e : open) {
      // Open items ascend, so each search starts past the previous hit.
      first = std::lower_bound(first, closed.by_item.end(), e.item,
                               [&](uint32_t pos, uint64_t item) {
                                 return closed.canonical[pos].item < item;
                               });
      if (first == closed.by_item.end()) break;
      if (closed.canonical[*first].item == e.item) {
        e.count += closed.canonical[*first].count;
        replaced.push_back(*first);
      }
    }
    SortEntries(open, EntryOrder::kCanonical);
    std::sort(replaced.begin(), replaced.end());
    const std::vector<SketchEntry>& sums = closed.canonical;
    std::vector<SketchEntry> combined;
    combined.reserve(sums.size() - replaced.size() + open.size());
    // Appends sums[next, end) minus the replaced positions, run by run.
    size_t next = 0;
    size_t skip = 0;
    auto copy_sums_to = [&](size_t end) {
      for (; skip < replaced.size() && replaced[skip] < end; ++skip) {
        combined.insert(combined.end(), sums.begin() + next,
                        sums.begin() + replaced[skip]);
        next = replaced[skip] + 1;
      }
      combined.insert(combined.end(), sums.begin() + next, sums.begin() + end);
      next = end;
    };
    auto canonical_less = [](const SketchEntry& a, const SketchEntry& b) {
      return a.count != b.count ? a.count < b.count : a.item < b.item;
    };
    for (const SketchEntry& e : open) {
      copy_sums_to(static_cast<size_t>(
          std::lower_bound(sums.begin() + next, sums.end(), e, canonical_less) -
          sums.begin()));
      combined.push_back(e);
    }
    copy_sums_to(sums.size());
    return combined;
  }

  // Drops the cached nodes whose span lies entirely left of the ring or
  // reaches epoch `from`.
  void EvictNodes(uint64_t from = std::numeric_limits<uint64_t>::max()) {
    const uint64_t front = ring_.front().epoch;
    for (auto it = node_cache_.begin(); it != node_cache_.end();) {
      const uint64_t span_hi =
          ((it->first.second + 1) << it->first.first) - 1;
      it = span_hi < front || span_hi >= from ? node_cache_.erase(it)
                                              : std::next(it);
    }
  }

  void ClearMergeCache() {
    node_cache_.clear();
    closed_memo_.clear();
  }

  WindowedSketchOptions options_;
  std::deque<EpochSlot> ring_;
  std::optional<DecayedSpaceSaving> decayed_;
  uint64_t rows_in_epoch_ = 0;
  uint64_t total_rows_ = 0;
  std::vector<uint64_t> batch_;  // scratch for epoch-stamped batches
  mutable std::map<std::pair<uint32_t, uint64_t>, std::vector<SketchEntry>>
      node_cache_;
  // Closed-span sums per last_k, at most 8 of them.
  mutable std::map<size_t, ClosedSpan> closed_memo_;
};

/// The windowed form of the paper's primary sketch — what the wire,
/// shard, query, and service layers instantiate.
using WindowedSpaceSaving = WindowedSketch<UnbiasedSpaceSaving>;

/// Epoch-aligned unbiased merge of windowed sketches into `merged`,
/// refreshed in place from epoch `from` on. Slots are matched by
/// absolute epoch id (a shard that saw no rows for an epoch simply
/// contributes nothing to it); merged slot e is the unbiased MergeShards
/// reduction of the shards' epoch-e sketches at merged's epoch_capacity
/// bins, seeded merged.seed + e. Only epochs in [from, newest shard
/// epoch] are re-merged (a `from` past the newest epoch is clamped to
/// it); merged's slots and merge-tree nodes below `from` are kept
/// — the caller vouches that no shard's slot below `from` changed since
/// they were merged — and the decayed accumulators are re-merged with
/// MergeDecayed, a lagging shard's open epoch added at its own stamp. So
/// with the same shard state, a refresh is
/// bit-identical to a full merge, and
/// ShardedSketch<WindowedSpaceSaving>::Snapshot() is epoch-consistent:
/// the merged ring answers window queries exactly as one windowed sketch
/// over the whole stream would. Returns the number of epochs re-merged.
/// `labels` is the fleet's part_labels(): one fleet's shards route every
/// label to one shard, so their epoch-e sketches share no label either.
size_t MergeShardsFrom(const std::vector<const WindowedSpaceSaving*>& shards,
                       uint64_t from, WindowedSpaceSaving& merged,
                       PartLabels labels = PartLabels::kMayRepeat);

/// Full epoch-aligned merge: MergeShardsFrom(shards, 0, ·) into a new
/// ring with the first shard's options, `epoch_capacity` bins per epoch
/// and seed `seed`.
WindowedSpaceSaving MergeShards(
    const std::vector<const WindowedSpaceSaving*>& shards,
    size_t epoch_capacity, uint64_t seed,
    PartLabels labels = PartLabels::kMayRepeat);

/// Value form of the windowed merge.
WindowedSpaceSaving MergeShards(const std::vector<WindowedSpaceSaving>& shards,
                                size_t epoch_capacity, uint64_t seed);

/// ShardRow trait: a windowed shard queue carries epoch-stamped rows and
/// routes on the item label (so every epoch of one item lands in one
/// shard and the per-epoch merge stays a disjoint-stream merge).
template <>
struct ShardRow<WindowedSpaceSaving> {
  using Type = EpochRow;
  static uint64_t ItemOf(const EpochRow& row) { return row.item; }
};

}  // namespace dsketch

#endif  // DSKETCH_WINDOW_WINDOWED_SKETCH_H_
