// Windowed ingestion source for the query engine: epoch-stamped rows
// fan out across a ShardedWindowedSketch, and queries see either the
// full-window merge (the SketchSource::View contract, so every existing
// estimator works over "the last W epochs" unchanged) or an explicit
// last-k window / decayed view through the windowed accessors.
//
// Epoch consistency: the producer-side epoch (advanced by Advance, by
// the stamps fed to IngestEpoch, or by restoring a peer that is ahead)
// is authoritative. The merged ring is re-aligned to it after every
// refresh — a shard that saw no rows for recent epochs cannot drag the
// merged ring backwards — so window queries always cut at the epoch the
// producer last declared.
//
// Refresh in place: the merged ring, and the merge tree it caches for
// last-k queries, live across mutations. The first read after a
// mutation re-merges only the epochs that can still have changed — from
// the oldest open epoch any local shard had at the previous refresh — so
// a query after fresh rows pays for about one epoch, not W. Absorbing a
// peer ring makes the next refresh a full re-merge, and a shard that got
// no rows for several epochs holds the boundary back at its open epoch.
// The refreshed ring is byte-identical to a full merge.
//
// Snapshots: SaveSnapshot ships the full epoch ring as the
// window-snapshot wire kind (window/window_wire.h) and RestoreSnapshot
// absorbs a peer's ring into the shard fleet, merging slot-by-epoch
// with locally ingested rows — windowed state replicates exactly like
// flat sketches do.

#ifndef DSKETCH_QUERY_WINDOWED_SOURCE_H_
#define DSKETCH_QUERY_WINDOWED_SOURCE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/trace.h"
#include "query/sketch_source.h"
#include "window/sharded_windowed.h"
#include "window/windowed_sketch.h"

namespace dsketch {

/// Sharded windowed source. Single producer, like every source.
class WindowedSketchSource final : public SketchSource {
 public:
  /// `shard` configures the fleet, `window` the per-shard epoch rings;
  /// View()/window queries merge at `window.merged_capacity` bins.
  WindowedSketchSource(const ShardedSketchOptions& shard,
                       const WindowedSketchOptions& window)
      : sharded_(MakeShardedWindowed(shard, window)),
        window_(window),
        seed_(shard.seed) {}

  /// Rows stamped with the current producer epoch.
  void Ingest(Span<const uint64_t> items) {
    staging_.clear();
    staging_.reserve(items.size());
    for (uint64_t item : items) staging_.push_back({item, epoch_});
    sharded_->Ingest(Span<const EpochRow>(staging_.data(), staging_.size()));
    MarkDirty();
  }

  /// Explicitly stamped rows; stamps ahead of the producer epoch
  /// advance it (stale stamps are credited to the epoch that is open
  /// when their shard applies them — see WindowedSketch::UpdateBatch).
  /// Stamps are bounded by kMaxEpochStamp, checked here at the call
  /// that introduces them — a stamp past the cap would otherwise only
  /// surface as a serialization CHECK at the next SaveSnapshot.
  void IngestEpoch(Span<const EpochRow> rows) {
    for (const EpochRow& row : rows) {
      if (row.epoch > epoch_) {
        DSKETCH_CHECK(row.epoch <= kMaxEpochStamp);
        epoch_ = row.epoch;
      }
    }
    sharded_->Ingest(rows);
    MarkDirty();
  }

  /// Closes the producer epoch and opens `epoch` (monotone; no-op when
  /// not ahead, bounded by kMaxEpochStamp like every stamp). Reaches
  /// the shards with the next stamped batch, and the merged view is
  /// re-aligned to it regardless.
  void Advance(uint64_t epoch) {
    DSKETCH_CHECK(epoch <= kMaxEpochStamp);
    if (epoch > epoch_) {
      epoch_ = epoch;
      MarkDirty();
    }
  }

  void Flush() { sharded_->Flush(); }

  /// Merged view over the full window (the ring's W newest epochs).
  const UnbiasedSpaceSaving& View() override {
    return WindowView(/*last_k=*/0);
  }

  /// Merged view over the newest min(last_k, ring) epochs (0 = full
  /// window). The two caches are keyed by the *caller's* last_k — a
  /// non-zero last_k never aliases the full-window cache, even while
  /// the ring is still shorter than last_k, so a fixed last_k keeps
  /// meaning "the newest k epochs" as the ring fills past k. One
  /// partial-window merge is cached at a time, so the returned
  /// reference stays valid until the next Ingest/IngestEpoch/Advance/
  /// RestoreSnapshot *or* the next WindowView call with a different
  /// non-zero last_k (the full-window view is cached separately and
  /// only invalidated by state changes). Both views are thin
  /// materializations over the merged ring's caches: a miss patches the
  /// open epoch into the ring's memoized closed-span sums, and only the
  /// first view after the window moves rebuilds those sums from O(log W)
  /// cached merge-tree partials — never an O(W) re-merge.
  const UnbiasedSpaceSaving& WindowView(size_t last_k) {
    // Opened before MergedRing() so a dirty ring's fleet snapshot
    // (shard_drain / snapshot_merge) nests under this span. The
    // merge-cache counter deltas distinguish a cached assembly from an
    // uncached re-merge in the exported trace.
    obs::ScopedSpan span("window_merge", obs::TraceLayer::kWindow);
    span.Annotate("last_k", last_k);
    const uint64_t node_hits0 = window_metrics::NodeCacheHits().Value();
    const uint64_t node_misses0 = window_metrics::NodeCacheMisses().Value();
    const uint64_t memo_hits0 = window_metrics::CombineMemoHits().Value();
    const WindowedSpaceSaving& ring = MergedRing();
    std::optional<UnbiasedSpaceSaving>& cache =
        last_k == 0 ? ring_view_ : window_view_;
    if (last_k != 0 && window_view_k_ != last_k) {
      cache.reset();
      window_view_k_ = last_k;
    }
    const bool cached = cache.has_value();
    if (!cached) {
      cache.emplace(
          ring.QueryWindow(last_k, window_.merged_capacity, MergeSeed()));
    }
    span.Annotate("view_cached", cached ? 1 : 0);
    span.Annotate("node_hits",
                  window_metrics::NodeCacheHits().Value() - node_hits0);
    span.Annotate("node_misses",
                  window_metrics::NodeCacheMisses().Value() - node_misses0);
    span.Annotate("memo_hits",
                  window_metrics::CombineMemoHits().Value() - memo_hits0);
    return *cache;
  }

  /// Exponentially decayed view as of the producer epoch (requires
  /// half_life_epochs > 0 in the window options). Never invalidates
  /// WindowView references — only mutations do.
  WeightedSpaceSaving DecayedView() { return MergedRing().QueryDecayed(); }

  /// The epoch-consistent merged ring itself (e.g. for serialization or
  /// slot inspection). Valid until the next Ingest/IngestEpoch/Advance/
  /// RestoreSnapshot — like WindowView references: views are dropped
  /// eagerly at mutation time (MarkDirty), so a read on a dirty source
  /// refreshes the ring without invalidating anything a caller still
  /// holds.
  ///
  /// The ring is kept across mutations and refreshed in place: only the
  /// epochs from the oldest open epoch a local shard had at the last
  /// refresh on are re-merged, and the merge-tree nodes below it
  /// survive, so a window query after fresh rows pays for the
  /// open epoch rather than for W epochs. The result is bit-identical to
  /// a full re-merge of the fleet.
  const WindowedSpaceSaving& MergedRing() {
    if (!dirty_ && merged_.has_value()) return *merged_;
    // Parts() flushes, nesting its shard_drain span under this one.
    obs::ScopedSpan span("snapshot_merge", obs::TraceLayer::kShard);
    span.Annotate("shards", sharded_->num_shards());
    const std::vector<const WindowedSpaceSaving*> parts = sharded_->Parts();
    if (!merged_.has_value()) {
      WindowedSketchOptions ring = window_;
      ring.seed = seed_ + 1000003;
      merged_.emplace(ring);
    }
    span.Annotate("epochs_remerged",
                  MergeShardsFrom(parts, final_below_, *merged_,
                                  sharded_->part_labels()));
    // The producer epoch is authoritative: open it even if no shard saw
    // rows for it yet.
    merged_->AdvanceTo(epoch_);
    final_below_ = kMaxEpochStamp;
    for (size_t i = 0; i < sharded_->num_shards(); ++i) {
      final_below_ = std::min(final_below_, sharded_->shard(i).CurrentEpoch());
    }
    dirty_ = false;
    return *merged_;
  }

  /// Ships the full epoch ring (window-snapshot wire kind).
  std::string SaveSnapshot() {
    return SerializeWindowed(MergedRing());
  }

  /// Absorbs a peer's ring into the fleet (epoch-aligned merge with
  /// local rows on the next view). A peer that is ahead advances the
  /// producer epoch to its newest epoch — otherwise rows ingested after
  /// the restore would be stamped with the stale clock and fall outside
  /// the merged window. False, leaving the state untouched, on malformed
  /// bytes and on a decoded ring that `admit(const WindowedSpaceSaving&)`
  /// refuses.
  template <typename Admit>
  bool RestoreSnapshot(std::string_view bytes, Admit admit) {
    if (!sharded_->IngestSerialized(bytes, admit)) return false;
    MarkDirty();
    final_below_ = 0;  // a new part: the next refresh re-merges every epoch
    // Peeked off the slot headers, not read from a merged view — a
    // restore stays cheap (the flush + fleet merge keeps being deferred
    // to the next query, where consecutive restores coalesce into one).
    std::optional<uint64_t> newest = PeekWindowedNewestEpoch(bytes);
    if (newest.has_value() && *newest > epoch_) epoch_ = *newest;
    return true;
  }

  bool RestoreSnapshot(std::string_view bytes) {
    return RestoreSnapshot(bytes,
                           [](const WindowedSpaceSaving&) { return true; });
  }

  /// Producer-side open epoch.
  uint64_t current_epoch() const { return epoch_; }

  /// The underlying fleet (tests/embedders).
  ShardedWindowedSketch& sharded() { return *sharded_; }

  /// The seed of every view's final reduction at the producer epoch.
  uint64_t MergeSeed() const { return seed_ + 2000003 + epoch_; }

 private:
  // Every mutation ends handed-out view validity *here*, eagerly — not
  // lazily at the next read. This is what makes the documented contract
  // ("references valid until the next Ingest/Advance/Restore") true:
  // DecayedView/MergedRing/SaveSnapshot on a dirty source refresh the
  // ring but never destroy a view some caller still references. The
  // window_view_k_ tag is reset with its cache so it can never describe
  // a cleared cache.
  void MarkDirty() {
    dirty_ = true;
    ring_view_.reset();
    window_view_.reset();
    window_view_k_ = 0;
  }

  std::unique_ptr<ShardedWindowedSketch> sharded_;
  WindowedSketchOptions window_;
  uint64_t seed_;
  uint64_t epoch_ = 0;
  bool dirty_ = true;
  std::vector<EpochRow> staging_;
  std::optional<WindowedSpaceSaving> merged_;
  // The epoch below which every merged slot is still final: the oldest
  // open epoch of any local shard at the last refresh. A shard writes
  // only at or after its open epoch (late rows are credited to it), and
  // absorbed remotes never change. 0 (a full re-merge) before the first
  // refresh and after a restore.
  uint64_t final_below_ = 0;
  std::optional<UnbiasedSpaceSaving> ring_view_;    // full-window merge
  std::optional<UnbiasedSpaceSaving> window_view_;  // last-k merge cache
  size_t window_view_k_ = 0;
};

}  // namespace dsketch

#endif  // DSKETCH_QUERY_WINDOWED_SOURCE_H_
