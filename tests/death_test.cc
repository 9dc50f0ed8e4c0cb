// Contract (CHECK) tests: invalid arguments abort with a diagnostic
// instead of corrupting sketch state. These document the library's
// programmer-error surface.

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "core/decayed_space_saving.h"
#include "core/unbiased_space_saving.h"
#include "core/weighted_space_saving.h"
#include "frequency/count_min.h"
#include "frequency/misra_gries.h"
#include "sampling/bottom_k.h"
#include "core/serialization.h"
#include "query/windowed_source.h"
#include "sampling/pps.h"
#include "sampling/priority_sampling.h"
#include "service/server.h"
#include "stats/normal.h"
#include "stream/distributions.h"
#include "util/alias.h"
#include "util/random.h"

namespace dsketch {
namespace {

using DeathTest = ::testing::Test;

TEST(DeathTest, ZeroCapacitySketchAborts) {
  EXPECT_DEATH(UnbiasedSpaceSaving(0), "CHECK failed");
  EXPECT_DEATH(WeightedSpaceSaving(0), "CHECK failed");
  EXPECT_DEATH(MisraGries(0), "CHECK failed");
  EXPECT_DEATH(BottomKSampler(0), "CHECK failed");
  EXPECT_DEATH(PrioritySampler(0), "CHECK failed");
}

TEST(DeathTest, NonPositiveWeightAborts) {
  WeightedSpaceSaving sketch(4);
  EXPECT_DEATH(sketch.Update(1, 0.0), "CHECK failed");
  EXPECT_DEATH(sketch.Update(1, -1.0), "CHECK failed");
  PrioritySampler sampler(4);
  EXPECT_DEATH(sampler.Add(1, 0.0), "CHECK failed");
}

TEST(DeathTest, DecayedSketchContracts) {
  EXPECT_DEATH(DecayedSpaceSaving(4, 0.0), "CHECK failed");
  DecayedSpaceSaving sketch(4, 10.0);
  sketch.Update(1, 100.0);
  // Timestamps must be non-decreasing.
  EXPECT_DEATH(sketch.Update(1, 99.0), "CHECK failed");
  // Queries cannot predate the last update.
  EXPECT_DEATH(sketch.EstimateDecayedCount(1, 50.0), "CHECK failed");
}

TEST(DeathTest, CountMinContracts) {
  EXPECT_DEATH(CountMin(0, 4), "CHECK failed");
  EXPECT_DEATH(CountMin(16, 0), "CHECK failed");
  CountMin cm(16, 2);
  EXPECT_DEATH(cm.Update(1, 0), "CHECK failed");
  EXPECT_DEATH(cm.Update(1, -5), "CHECK failed");
}

TEST(DeathTest, NormalQuantileDomain) {
  EXPECT_DEATH(NormalQuantile(0.0), "CHECK failed");
  EXPECT_DEATH(NormalQuantile(1.0), "CHECK failed");
  EXPECT_DEATH(NormalTwoSidedZ(1.5), "CHECK failed");
}

TEST(DeathTest, AliasTableContracts) {
  EXPECT_DEATH(AliasTable({}), "CHECK failed");
  EXPECT_DEATH(AliasTable({0.0, 0.0}), "CHECK failed");
  EXPECT_DEATH(AliasTable({1.0, -1.0}), "CHECK failed");
}

TEST(DeathTest, DistributionContracts) {
  EXPECT_DEATH(WeibullCounts(0, 1.0, 1.0), "CHECK failed");
  EXPECT_DEATH(WeibullCounts(10, -1.0, 1.0), "CHECK failed");
  EXPECT_DEATH(GeometricCounts(10, 1.5), "CHECK failed");
  EXPECT_DEATH(ScaleCountsToTotal({1, 2}, 0), "CHECK failed");
}

TEST(DeathTest, PpsRejectsNegativeWeights) {
  EXPECT_DEATH(ThresholdedPpsProbabilities({1.0, -2.0}, 1), "CHECK failed");
}

TEST(DeathTest, ServerVetsWindowConfigAtStartup) {
  // The windowed fleet boots lazily on the first windowed frame, so a
  // bad SketchServerOptions.window must abort at construction — not mid-
  // stream when a client first touches the window scope.
  SketchServerOptions rows_clock;
  rows_clock.window.rows_per_epoch = 100;  // stamped rows are the clock
  EXPECT_DEATH(SketchServer{rows_clock}, "CHECK failed");
  SketchServerOptions no_ring;
  no_ring.window.window_epochs = 0;
  EXPECT_DEATH(SketchServer{no_ring}, "CHECK failed");
  SketchServerOptions huge_ring;
  huge_ring.window.window_epochs = kMaxWindowEpochs + 1;
  EXPECT_DEATH(SketchServer{huge_ring}, "CHECK failed");
  // A half-life so short the per-epoch factor underflows to 0 would
  // leave decay silently off while half_life > 0 — and make the
  // server's own windowed snapshots unrestorable.
  SketchServerOptions tiny_half_life;
  tiny_half_life.window.half_life_epochs = 1e-5;
  EXPECT_DEATH(SketchServer{tiny_half_life}, "CHECK failed");
  WindowedSketchOptions underflow;
  underflow.half_life_epochs = 1e-5;
  EXPECT_DEATH(WindowedSpaceSaving{underflow}, "CHECK failed");
  // The wall-clock epoch timer cannot run backwards (dsketchd rejects
  // the flag value before it gets here; embedders hit the same CHECK).
  SketchServerOptions negative_interval;
  negative_interval.epoch_interval_ms = -1;
  EXPECT_DEATH(SketchServer{negative_interval}, "CHECK failed");
  // Capacities past the wire encoders' cap would otherwise only abort
  // on the first SNAPSHOT frame.
  SketchServerOptions big_epoch_cap;
  big_epoch_cap.window.epoch_capacity =
      static_cast<size_t>(kMaxSerializableCapacity) + 1;
  EXPECT_DEATH(SketchServer{big_epoch_cap}, "CHECK failed");
  SketchServerOptions big_merged;
  big_merged.merged_capacity = static_cast<size_t>(kMaxSerializableCapacity) + 1;
  EXPECT_DEATH(SketchServer{big_merged}, "CHECK failed");
  // Every shard fleet boots on its scope's first request, so the shard
  // options are vetted up front too.
  SketchServerOptions no_shards;
  no_shards.shard.num_shards = 0;
  EXPECT_DEATH(SketchServer{no_shards}, "CHECK failed");
  SketchServerOptions no_bins;
  no_bins.shard.shard_capacity = 0;
  EXPECT_DEATH(SketchServer{no_bins}, "CHECK failed");
  SketchServerOptions no_batch;
  no_batch.shard.batch_size = 0;
  EXPECT_DEATH(SketchServer{no_batch}, "CHECK failed");
  SketchServerOptions no_queue;
  no_queue.shard.queue_capacity = 0;
  EXPECT_DEATH(SketchServer{no_queue}, "CHECK failed");
}

TEST(DeathTest, WindowedSourceRejectsStampsPastTheClockCap) {
  // A stamp past kMaxEpochStamp must fail at the call that introduces
  // it, not as a serialization CHECK at the next SaveSnapshot.
  ShardedSketchOptions shard;
  shard.num_shards = 1;
  WindowedSketchSource source(shard, WindowedSketchOptions{});
  EXPECT_DEATH(source.Advance(kMaxEpochStamp + 1), "CHECK failed");
  EpochRow row{1, kMaxEpochStamp + 1};
  EXPECT_DEATH(source.IngestEpoch(Span<const EpochRow>(&row, 1)),
               "CHECK failed");
}

}  // namespace
}  // namespace dsketch
