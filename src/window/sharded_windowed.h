// Sharded hosting of the windowed sketch: the concurrent front-end of
// shard/sharded_sketch.h carrying epoch-stamped rows into per-thread
// epoch rings.
//
// The single producer stamps each row with its epoch (EpochRow) and the
// partition routes on the item label, so every distinct item's whole
// history lands in one shard and each per-epoch merge stays a
// disjoint-stream merge (unbiased by Theorem 2). Because each shard's
// inbox preserves order, per-shard epoch stamps are non-decreasing and
// each shard's ring advances exactly as a single-threaded windowed
// sketch over its partition would. Snapshot() runs the epoch-aligned
// MergeShards (windowed_sketch.h): slots merge by absolute epoch id and
// the shards' forward-decay accumulators merge by lining up their
// landmarks (a lagging shard's open epoch joins at its own stamp), so
// the merged ring is epoch-consistent — window and decayed queries
// answer as one windowed sketch over the whole stream. Since a
// shard only ever writes at or after its open epoch, its closed slots
// are final: WindowedSketchSource (query/windowed_source.h) keeps one
// merged ring and refreshes it from Parts() with MergeShardsFrom, which
// re-merges only the epochs that can still have changed.
//
// MakeShardedWindowed builds the fleet: ShardedSketch's default factory
// assumes an S(capacity, seed) constructor, so the windowed
// instantiation supplies one that seeds each shard's ring at
// shard.seed + i (per-epoch sketches then derive their own seeds).

#ifndef DSKETCH_WINDOW_SHARDED_WINDOWED_H_
#define DSKETCH_WINDOW_SHARDED_WINDOWED_H_

#include <memory>

#include "shard/sharded_sketch.h"
#include "window/window_wire.h"
#include "window/windowed_sketch.h"

namespace dsketch {

/// The concurrent front-end for epoch-stamped rows.
using ShardedWindowedSketch = ShardedSketch<WindowedSpaceSaving>;

/// Builds a sharded windowed fleet: `shard` configures the queues and
/// workers, `window` the per-shard epoch rings (its seed is offset per
/// shard; shard-ring epoch capacity comes from `window.epoch_capacity`,
/// not shard.shard_capacity). Row-count time (rows_per_epoch) is
/// rejected here: the stamped rows dictate epochs, and per-shard
/// auto-advance would fracture the shards' epoch alignment.
inline std::unique_ptr<ShardedWindowedSketch> MakeShardedWindowed(
    const ShardedSketchOptions& shard, const WindowedSketchOptions& window) {
  DSKETCH_CHECK(window.rows_per_epoch == 0);
  return std::make_unique<ShardedWindowedSketch>(
      shard, [window, base_seed = shard.seed](size_t i) {
        WindowedSketchOptions opt = window;
        opt.seed = base_seed + i;
        return WindowedSpaceSaving(opt);
      });
}

}  // namespace dsketch

#endif  // DSKETCH_WINDOW_SHARDED_WINDOWED_H_
