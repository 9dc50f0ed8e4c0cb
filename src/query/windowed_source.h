// Windowed ingestion source for the query engine: epoch-stamped rows
// fan out across a ShardedWindowedSketch, and queries see either the
// full-window merge (the SketchSource::View contract, so every existing
// estimator works over "the last W epochs" unchanged) or an explicit
// last-k window / decayed view through the windowed accessors.
//
// Epoch consistency: the producer-side epoch (advanced by Advance, by
// the stamps fed to IngestEpoch, or by restoring a peer that is ahead)
// is authoritative. The merged snapshot is re-aligned to it after every
// merge — a shard that saw no rows for recent epochs cannot drag the
// merged ring backwards — so window queries always cut at the epoch the
// producer last declared.
//
// Snapshots: SaveSnapshot ships the full epoch ring as the
// window-snapshot wire kind (window/window_wire.h) and RestoreSnapshot
// absorbs a peer's ring into the shard fleet, merging slot-by-epoch
// with locally ingested rows — windowed state replicates exactly like
// flat sketches do.

#ifndef DSKETCH_QUERY_WINDOWED_SOURCE_H_
#define DSKETCH_QUERY_WINDOWED_SOURCE_H_

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
  /// materializations over the merged ring's hierarchical merge cache:
  /// a miss costs one O(log W) cached-partial assembly, not an O(W)
  /// re-merge.
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
  /// re-merges without invalidating anything a caller still holds.
  const WindowedSpaceSaving& MergedRing() {
    if (dirty_ || !merged_.has_value()) {
      merged_.emplace(
          sharded_->Snapshot(window_.epoch_capacity, seed_ + 1000003));
      // The producer epoch is authoritative: open it even if no shard
      // saw rows for it yet.
      merged_->AdvanceTo(epoch_);
      dirty_ = false;
    }
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
  /// the merged window. False on malformed bytes.
  bool RestoreSnapshot(std::string_view bytes) {
    if (!sharded_->IngestSerialized(bytes)) return false;
    MarkDirty();
    // Peeked off the slot headers, not read from a merged view — a
    // restore stays cheap (the flush + fleet merge keeps being deferred
    // to the next query, where consecutive restores coalesce into one).
    std::optional<uint64_t> newest = PeekWindowedNewestEpoch(bytes);
    if (newest.has_value() && *newest > epoch_) epoch_ = *newest;
    return true;
  }

  /// Producer-side open epoch.
  uint64_t current_epoch() const { return epoch_; }

  /// The underlying fleet (tests/embedders).
  ShardedWindowedSketch& sharded() { return *sharded_; }

 private:
  uint64_t MergeSeed() const { return seed_ + 2000003 + epoch_; }

  // Every mutation ends handed-out view validity *here*, eagerly — not
  // lazily at the next read. This is what makes the documented contract
  // ("references valid until the next Ingest/Advance/Restore") true:
  // DecayedView/MergedRing/SaveSnapshot on a dirty source re-merge the
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
  std::optional<UnbiasedSpaceSaving> ring_view_;    // full-window merge
  std::optional<UnbiasedSpaceSaving> window_view_;  // last-k merge cache
  size_t window_view_k_ = 0;
};

}  // namespace dsketch

#endif  // DSKETCH_QUERY_WINDOWED_SOURCE_H_
