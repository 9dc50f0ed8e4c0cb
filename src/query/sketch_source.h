// The live sketch the approximate query engine reads.
//
// SketchSource is the one thing SketchQueryEngine needs from whatever
// holds the stream: View(), an UnbiasedSpaceSaving over every row
// ingested so far. Every estimator downstream of the engine (subset
// sums, variances, CIs, top-k) runs on that view, so it behaves the same
// whichever source produced it.
//
// ShardedSketchSource fans rows out across the concurrent shard fleet
// (shard/sharded_sketch.h) and merges the shards for View().
// WindowedSketchSource (query/windowed_source.h) keeps an epoch ring and
// serves the full-window merge. Each also saves and restores its state
// as wire-format bytes (SaveSnapshot / RestoreSnapshot), so state
// survives restarts and replicates between nodes across wire versions.
// A read replica's frozen image is not a source: the engine reads it
// directly (query/frozen_source.h).

#ifndef DSKETCH_QUERY_SKETCH_SOURCE_H_
#define DSKETCH_QUERY_SKETCH_SOURCE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "core/serialization.h"
#include "core/unbiased_space_saving.h"
#include "shard/sharded_sketch.h"
#include "util/span.h"

namespace dsketch {

/// What the query engine reads from a live ingestion front.
class SketchSource {
 public:
  /// Sketch over everything ingested so far, pending rows included. The
  /// reference stays valid until the source's next mutating call.
  virtual const UnbiasedSpaceSaving& View() = 0;

 protected:
  // Sources are owned by their concrete type, never deleted through this.
  ~SketchSource() = default;
};

/// Concurrent source: rows fan out across a ShardedSketch; View() merges
/// the shards with the unbiased reduction (cached until the next Ingest).
class ShardedSketchSource final : public SketchSource {
 public:
  /// `options` configures the shard fleet; View() merges into a sketch
  /// with `merged_capacity` bins using `merge_seed` (deterministic given
  /// the ingested stream).
  ShardedSketchSource(const ShardedSketchOptions& options,
                      size_t merged_capacity, uint64_t merge_seed = 1)
      : sharded_(options),
        merged_capacity_(merged_capacity),
        merge_seed_(merge_seed),
        snapshot_(merged_capacity, merge_seed) {}

  /// Feeds a batch of disaggregated rows (unit-of-analysis labels).
  /// Returns false, ingesting nothing, when the batch would carry the
  /// total count past INT64_MAX.
  bool Ingest(Span<const uint64_t> items) {
    if (items.size() > static_cast<uint64_t>(INT64_MAX - total_)) {
      return false;
    }
    sharded_.Ingest(items);
    total_ += static_cast<int64_t>(items.size());
    dirty_ = true;
    return true;
  }

  /// Blocks until every ingested row has reached its shard sketch.
  void Flush() { sharded_.Flush(); }

  /// Re-merges the shards (flushing them first) only after an Ingest or
  /// RestoreSnapshot; otherwise returns the cached merge.
  const UnbiasedSpaceSaving& View() override {
    if (dirty_) {
      snapshot_ = sharded_.Snapshot(merged_capacity_, merge_seed_);
      dirty_ = false;
    }
    return snapshot_;
  }

  /// View() in the current wire format; restorable with RestoreSnapshot.
  std::string SaveSnapshot() { return Serialize(View()); }

  /// Routes a serialized sketch (any supported wire version) into the
  /// shard fleet as an absorbed remote sketch; the next View() merges it
  /// with the locally ingested rows. Returns false — leaving the state
  /// untouched — on malformed bytes, and on a sketch whose total would
  /// carry the total count past INT64_MAX.
  bool RestoreSnapshot(std::string_view bytes) {
    int64_t added = 0;
    if (!sharded_.IngestSerialized(bytes, [&](const UnbiasedSpaceSaving& s) {
          added = s.TotalCount();
          return added <= INT64_MAX - total_;
        })) {
      return false;
    }
    total_ += added;
    dirty_ = true;
    return true;
  }

  /// The underlying shard fleet (e.g. to inspect per-shard sketches).
  ShardedSpaceSaving& sharded() { return sharded_; }

 private:
  ShardedSpaceSaving sharded_;
  size_t merged_capacity_;
  uint64_t merge_seed_;
  UnbiasedSpaceSaving snapshot_;
  bool dirty_ = false;
  // Rows ingested plus the absorbed sketches' totals: the fleet's total
  // count, kept without a flush so every addition is checked first.
  int64_t total_ = 0;
};

}  // namespace dsketch

#endif  // DSKETCH_QUERY_SKETCH_SOURCE_H_
