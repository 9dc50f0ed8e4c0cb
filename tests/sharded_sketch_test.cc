// Tests for the sharded concurrent front-end: routing, exactness of
// totals, determinism despite threading, per-shard equivalence with a
// sequentially-partitioned reference (also when every Ingest waits on a
// full inbox and the producer drains it itself), and the statistical
// contract — Snapshot() subset-sum estimates stay unbiased because the
// hash partition + unbiased merge satisfy Theorem 2.

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "core/merge.h"
#include "core/serialization.h"
#include "core/subset_sum.h"
#include "core/unbiased_space_saving.h"
#include "shard/sharded_sketch.h"
#include "stats/welford.h"
#include "stream/distributions.h"
#include "stream/generators.h"
#include "test_scale.h"
#include "util/random.h"

namespace dsketch {
namespace {

ShardedSketchOptions SmallOptions(size_t shards) {
  ShardedSketchOptions opt;
  opt.num_shards = shards;
  opt.shard_capacity = 64;
  opt.queue_capacity = 4096;
  opt.batch_size = 256;
  opt.seed = 11;
  return opt;
}

TEST(ShardedSketchTest, PreservesTotalCountExactly) {
  auto counts = WeibullCounts(500, 40.0, 0.5);
  Rng rng(21);
  auto rows = PermutedStream(counts, rng);

  ShardedSpaceSaving sharded(SmallOptions(4));
  // Ingest in uneven chunks, as a streaming caller would.
  size_t pos = 0;
  while (pos < rows.size()) {
    size_t len = std::min<size_t>(1000, rows.size() - pos);
    sharded.Ingest(Span<const uint64_t>(rows.data() + pos, len));
    pos += len;
  }
  sharded.Flush();

  EXPECT_EQ(sharded.RowsIngested(), static_cast<int64_t>(rows.size()));
  int64_t shard_total = 0;
  for (size_t s = 0; s < sharded.num_shards(); ++s) {
    shard_total += sharded.shard(s).TotalCount();
  }
  EXPECT_EQ(shard_total, static_cast<int64_t>(rows.size()));

  // The unbiased merge preserves the total exactly as well.
  UnbiasedSpaceSaving merged = sharded.Snapshot(128, 3);
  EXPECT_EQ(merged.TotalCount(), static_cast<int64_t>(rows.size()));
}

TEST(ShardedSketchTest, ShardsMatchSequentiallyPartitionedReference) {
  // Thread timing must not affect per-shard state: each shard sees its
  // partition's rows in stream order, so a single-threaded partition of
  // the same stream into per-shard sketches is bit-for-bit identical.
  auto counts = WeibullCounts(800, 25.0, 0.5);
  Rng rng(31);
  auto rows = PermutedStream(counts, rng);

  // A one-row inbox with one-row batches makes every Ingest wait on a
  // full inbox, so the producer drains rows itself between the worker's
  // drains.
  ShardedSketchOptions tiny_inbox = SmallOptions(3);
  tiny_inbox.queue_capacity = 1;
  tiny_inbox.batch_size = 1;
  for (const ShardedSketchOptions& opt : {SmallOptions(3), tiny_inbox}) {
    SCOPED_TRACE(opt.queue_capacity);
    ShardedSpaceSaving sharded(opt);
    sharded.Ingest(rows);
    sharded.Flush();

    std::vector<UnbiasedSpaceSaving> reference;
    for (size_t s = 0; s < opt.num_shards; ++s) {
      reference.emplace_back(opt.shard_capacity, opt.seed + s);
    }
    for (uint64_t item : rows) {
      reference[sharded.ShardOf(item)].Update(item);
    }

    for (size_t s = 0; s < opt.num_shards; ++s) {
      auto got = sharded.shard(s).Entries();
      auto want = reference[s].Entries();
      ASSERT_EQ(got.size(), want.size()) << "shard " << s;
      for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].item, want[i].item)
            << "shard " << s << " entry " << i;
        EXPECT_EQ(got[i].count, want[i].count)
            << "shard " << s << " entry " << i;
      }
    }
  }
}

TEST(ShardedSketchTest, SnapshotIsDeterministicAcrossRuns) {
  auto counts = WeibullCounts(600, 20.0, 0.5);
  Rng rng(41);
  auto rows = PermutedStream(counts, rng);

  auto run = [&rows] {
    ShardedSpaceSaving sharded(SmallOptions(4));
    sharded.Ingest(rows);
    return sharded.Snapshot(96, 7);
  };
  UnbiasedSpaceSaving a = run();
  UnbiasedSpaceSaving b = run();
  auto ea = a.Entries(), eb = b.Entries();
  ASSERT_EQ(ea.size(), eb.size());
  for (size_t i = 0; i < ea.size(); ++i) {
    EXPECT_EQ(ea[i].item, eb[i].item);
    EXPECT_EQ(ea[i].count, eb[i].count);
  }
}

TEST(ShardedSketchTest, RoutingCoversAllShardsAndIsConsistent) {
  ShardedSpaceSaving sharded(SmallOptions(4));
  std::vector<int> hits(4, 0);
  for (uint64_t item = 0; item < 10000; ++item) {
    size_t s = sharded.ShardOf(item);
    ASSERT_LT(s, 4u);
    EXPECT_EQ(s, sharded.ShardOf(item));  // stable
    ++hits[s];
  }
  for (int h : hits) EXPECT_GT(h, 1500);  // roughly balanced
}

TEST(ShardedSketchTest, SnapshotSubsetSumsStayUnbiased) {
  // Statistical contract: the mean Snapshot() subset-sum estimate over
  // independently-seeded trials must match the true subset sum within a
  // CI (the hash partition is fixed; the randomness is in the per-shard
  // label draws and the merge reduction).
  auto counts = WeibullCounts(300, 50.0, 0.45);
  double truth = 0;
  for (size_t i = 0; i < counts.size(); i += 3) {
    truth += static_cast<double>(counts[i]);
  }
  const int trials = test::ScaledTrials(300);
  Welford est;
  for (int t = 0; t < trials; ++t) {
    Rng rng(50000 + t);
    auto rows = PermutedStream(counts, rng);
    ShardedSketchOptions opt;
    opt.num_shards = 4;
    opt.shard_capacity = 24;
    opt.queue_capacity = 8192;
    opt.batch_size = 512;
    opt.seed = 60000 + static_cast<uint64_t>(t) * 17;
    ShardedSpaceSaving sharded(opt);
    sharded.Ingest(rows);
    UnbiasedSpaceSaving merged =
        sharded.Snapshot(64, 70000 + static_cast<uint64_t>(t));
    est.Add(EstimateSubsetSum(merged, [](uint64_t x) {
              return x % 3 == 0;
            }).estimate);
  }
  EXPECT_NEAR(est.mean(), truth, 5 * est.stderr_mean());
}

TEST(ShardedSketchTest, SerializedSnapshotRoundTripsIntoFreshFleet) {
  // Replication: a fleet's serialized snapshot absorbed by a fresh fleet
  // reproduces the snapshot exactly (no local rows to merge with, and
  // the merge capacity holds every entry, so the reduction is a no-op).
  auto counts = WeibullCounts(300, 30.0, 0.5);
  Rng rng(91);
  auto rows = PermutedStream(counts, rng);
  ShardedSpaceSaving primary(SmallOptions(4));
  primary.Ingest(Span<const uint64_t>(rows.data(), rows.size()));
  primary.Flush();
  std::string blob = primary.SerializeSnapshot(512, 7);

  ShardedSpaceSaving replica(SmallOptions(2));
  ASSERT_TRUE(replica.IngestSerialized(blob));
  EXPECT_EQ(replica.num_absorbed(), 1u);
  UnbiasedSpaceSaving original = primary.Snapshot(512, 7);
  UnbiasedSpaceSaving restored = replica.Snapshot(512, 9);
  EXPECT_EQ(restored.TotalCount(), original.TotalCount());
  for (const SketchEntry& e : original.Entries()) {
    EXPECT_EQ(restored.EstimateCount(e.item), e.count);
  }
}

TEST(ShardedSketchTest, AbsorbedSnapshotMergesWithLocalRows) {
  // Peer replication: fleet B ingests its own rows and absorbs fleet A's
  // snapshot (shipped as v2 bytes and, from a not-yet-upgraded peer, as
  // v1 bytes); the snapshot total covers both streams.
  std::vector<uint64_t> rows_a(4000), rows_b(6000);
  Rng rng(92);
  for (auto& r : rows_a) r = rng.NextBounded(200);
  for (auto& r : rows_b) r = 200 + rng.NextBounded(300);

  ShardedSpaceSaving fleet_a(SmallOptions(2));
  fleet_a.Ingest(Span<const uint64_t>(rows_a.data(), rows_a.size()));
  std::string v2_blob = fleet_a.SerializeSnapshot(256, 3);
  std::string v1_blob = SerializeV1(fleet_a.Snapshot(256, 3));

  ShardedSpaceSaving fleet_b(SmallOptions(3));
  fleet_b.Ingest(Span<const uint64_t>(rows_b.data(), rows_b.size()));
  ASSERT_TRUE(fleet_b.IngestSerialized(v2_blob));
  ASSERT_TRUE(fleet_b.IngestSerialized(v1_blob));
  EXPECT_EQ(fleet_b.num_absorbed(), 2u);
  const int64_t expected =
      static_cast<int64_t>(2 * rows_a.size() + rows_b.size());

  // TotalCount flushes and reads the same exact total without merging.
  const obs::Histogram& merge_us =
      obs::MetricsRegistry::Global().GetHistogram(
          "dsketch_shard_snapshot_merge_us");
  const uint64_t merges = merge_us.Count();
  EXPECT_EQ(fleet_b.TotalCount(), expected);
  EXPECT_EQ(merge_us.Count(), merges);

  UnbiasedSpaceSaving merged = fleet_b.Snapshot(1024, 5);
  EXPECT_EQ(merged.TotalCount(), expected);
}

TEST(ShardedSketchTest, IngestSerializedRejectsMalformedBytes) {
  ShardedSpaceSaving fleet(SmallOptions(2));
  EXPECT_FALSE(fleet.IngestSerialized("not a sketch"));
  std::string blob = fleet.SerializeSnapshot(64, 1);
  EXPECT_FALSE(
      fleet.IngestSerialized(std::string_view(blob.data(), blob.size() - 1)));
  EXPECT_EQ(fleet.num_absorbed(), 0u);
  EXPECT_TRUE(fleet.IngestSerialized(blob));
  EXPECT_EQ(fleet.num_absorbed(), 1u);
}

// Without an absorbed remote the fleet skips the label combine; its
// snapshot must still equal MergeAll over the same parts (which
// combines) byte for byte, merged over capacity and under it.
TEST(ShardedSketchTest, SnapshotEqualsMergeAllOverParts) {
  for (size_t shards : {size_t{1}, size_t{2}, size_t{4}, size_t{32}}) {
    ShardedSpaceSaving fleet(SmallOptions(shards));
    Rng rng(100 + shards);
    std::vector<uint64_t> rows(20000);
    for (uint64_t& r : rows) r = rng.NextBounded(rng.NextBounded(3000) + 1);
    fleet.Ingest(Span<const uint64_t>(rows.data(), rows.size()));
    EXPECT_EQ(fleet.part_labels(), PartLabels::kDisjoint);
    for (size_t capacity : {size_t{48}, size_t{4096}}) {
      EXPECT_EQ(Serialize(fleet.Snapshot(capacity, 7)),
                Serialize(MergeAll(fleet.Parts(), capacity, 7)))
          << shards << " shards, capacity " << capacity;
    }
  }
}

// A remote that repeats a local shard's labels: the merge must sum each
// label's counts into one bin.
TEST(ShardedSketchTest, RemoteSharingLocalLabelsIsSummed) {
  // 100 items over 2 shards of 64 bins: every shard count is exact.
  std::vector<uint64_t> rows(3000);
  Rng rng(93);
  for (uint64_t& r : rows) r = rng.NextBounded(100);
  std::unordered_map<uint64_t, int64_t> truth;
  for (uint64_t r : rows) ++truth[r];

  ShardedSpaceSaving fleet(SmallOptions(2));
  fleet.Ingest(Span<const uint64_t>(rows.data(), rows.size()));
  fleet.Flush();
  ASSERT_TRUE(fleet.IngestSerialized(Serialize(fleet.shard(0))));
  EXPECT_EQ(fleet.part_labels(), PartLabels::kMayRepeat);

  const UnbiasedSpaceSaving merged = fleet.Snapshot(4096, 3);
  EXPECT_EQ(merged.size(), truth.size());
  for (const auto& [item, count] : truth) {
    EXPECT_EQ(merged.EstimateCount(item),
              fleet.ShardOf(item) == 0 ? 2 * count : count)
        << item;
  }
  EXPECT_EQ(Serialize(merged), Serialize(MergeAll(fleet.Parts(), 4096, 3)));
}

// ---------------------------------------------------------------------
// Weighted sharding: (item, weight) rows through the same queues,
// WeightedSpaceSaving shards, ReducePairwiseWeighted merge.
// ---------------------------------------------------------------------

std::vector<WeightedEntry> WeightedRows(size_t n_items, size_t rows_per_item,
                                        uint64_t seed) {
  std::vector<WeightedEntry> rows;
  rows.reserve(n_items * rows_per_item);
  Rng rng(seed);
  for (size_t i = 0; i < n_items; ++i) {
    for (size_t r = 0; r < rows_per_item; ++r) {
      rows.push_back({static_cast<uint64_t>(i), 0.25 + rng.NextDouble()});
    }
  }
  for (size_t i = rows.size(); i > 1; --i) {
    std::swap(rows[i - 1], rows[rng.NextBounded(i)]);
  }
  return rows;
}

TEST(ShardedWeightedSketchTest, PreservesTotalWeight) {
  auto rows = WeightedRows(400, 20, 101);
  double truth = 0.0;
  for (const WeightedEntry& r : rows) truth += r.weight;

  ShardedWeightedSpaceSaving sharded(SmallOptions(4));
  size_t pos = 0;
  while (pos < rows.size()) {
    size_t len = std::min<size_t>(777, rows.size() - pos);
    sharded.Ingest(Span<const WeightedEntry>(rows.data() + pos, len));
    pos += len;
  }
  sharded.Flush();
  EXPECT_EQ(sharded.RowsIngested(), static_cast<int64_t>(rows.size()));

  double shard_total = 0.0;
  for (size_t s = 0; s < sharded.num_shards(); ++s) {
    shard_total += sharded.shard(s).TotalWeight();
  }
  EXPECT_NEAR(shard_total, truth, 1e-6 * truth);

  WeightedSpaceSaving merged = sharded.Snapshot(128, 3);
  EXPECT_NEAR(merged.TotalWeight(), truth, 1e-6 * truth);
}

TEST(ShardedWeightedSketchTest, ShardsMatchSequentiallyPartitionedReference) {
  // Same contract as the unit-row fleet: per-shard state is bit-for-bit
  // the single-threaded partition of the stream (UpdateBatch over
  // (item, weight) rows is pinned identical to per-row Update).
  auto rows = WeightedRows(300, 12, 131);
  ShardedSketchOptions opt = SmallOptions(3);
  ShardedWeightedSpaceSaving sharded(opt);
  sharded.Ingest(rows);
  sharded.Flush();

  std::vector<WeightedSpaceSaving> reference;
  for (size_t s = 0; s < opt.num_shards; ++s) {
    reference.emplace_back(opt.shard_capacity, opt.seed + s);
  }
  for (const WeightedEntry& row : rows) {
    reference[sharded.ShardOf(row.item)].Update(row.item, row.weight);
  }
  for (size_t s = 0; s < opt.num_shards; ++s) {
    auto got = sharded.shard(s).Entries();
    auto want = reference[s].Entries();
    ASSERT_EQ(got.size(), want.size()) << "shard " << s;
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].item, want[i].item) << "shard " << s << " entry " << i;
      EXPECT_EQ(got[i].weight, want[i].weight)
          << "shard " << s << " entry " << i;
    }
  }
}

TEST(ShardedWeightedSketchTest, SnapshotSubsetSumsStayUnbiased) {
  // The weighted merge (combine + ReducePairwiseWeighted) is a Theorem-2
  // reduction, so snapshot subset sums stay unbiased across trials.
  const size_t kItems = 300;
  std::vector<double> item_weight(kItems);
  for (size_t i = 0; i < kItems; ++i) {
    item_weight[i] = 0.5 + static_cast<double>(i % 13);
  }
  double truth = 0.0;
  for (size_t i = 0; i < kItems; i += 3) truth += 8 * item_weight[i];

  const int trials = test::ScaledTrials(300);
  Welford est;
  for (int t = 0; t < trials; ++t) {
    std::vector<WeightedEntry> rows;
    for (size_t i = 0; i < kItems; ++i) {
      for (int r = 0; r < 8; ++r) {
        rows.push_back({static_cast<uint64_t>(i), item_weight[i]});
      }
    }
    Rng rng(90000 + t);
    for (size_t i = rows.size(); i > 1; --i) {
      std::swap(rows[i - 1], rows[rng.NextBounded(i)]);
    }
    ShardedSketchOptions opt;
    opt.num_shards = 4;
    opt.shard_capacity = 24;
    opt.queue_capacity = 8192;
    opt.batch_size = 512;
    opt.seed = 91000 + static_cast<uint64_t>(t) * 13;
    ShardedWeightedSpaceSaving sharded(opt);
    sharded.Ingest(rows);
    WeightedSpaceSaving merged =
        sharded.Snapshot(64, 92000 + static_cast<uint64_t>(t));
    est.Add(EstimateSubsetSum(merged, [](uint64_t x) {
              return x % 3 == 0;
            }).estimate);
  }
  EXPECT_NEAR(est.mean(), truth, 5 * est.stderr_mean());
}

TEST(ShardedWeightedSketchTest, SerializedSnapshotRoundTripsIntoFreshFleet) {
  auto rows = WeightedRows(200, 15, 171);
  ShardedWeightedSpaceSaving primary(SmallOptions(3));
  primary.Ingest(rows);
  primary.Flush();
  std::string blob = primary.SerializeSnapshot(256, 7);

  ShardedWeightedSpaceSaving replica(SmallOptions(2));
  ASSERT_TRUE(replica.IngestSerialized(blob));
  EXPECT_FALSE(replica.IngestSerialized("junk"));
  EXPECT_EQ(replica.num_absorbed(), 1u);
  WeightedSpaceSaving original = primary.Snapshot(256, 7);
  WeightedSpaceSaving restored = replica.Snapshot(256, 9);
  EXPECT_NEAR(restored.TotalWeight(), original.TotalWeight(),
              1e-9 * original.TotalWeight());
  for (const WeightedEntry& e : original.Entries()) {
    EXPECT_DOUBLE_EQ(restored.EstimateWeight(e.item), e.weight);
  }
}

TEST(ShardedWeightedSketchTest, SnapshotEqualsMergeAllOverParts) {
  for (size_t shards : {size_t{1}, size_t{2}, size_t{4}, size_t{32}}) {
    ShardedWeightedSpaceSaving fleet(SmallOptions(shards));
    fleet.Ingest(WeightedRows(400, 20, 200 + shards));
    EXPECT_EQ(fleet.part_labels(), PartLabels::kDisjoint);
    for (size_t capacity : {size_t{48}, size_t{4096}}) {
      EXPECT_EQ(Serialize(fleet.Snapshot(capacity, 7)),
                Serialize(MergeAll(fleet.Parts(), capacity, 7)))
          << shards << " shards, capacity " << capacity;
    }
  }
}

TEST(ShardedWeightedSketchTest, RemoteSharingLocalLabelsIsSummed) {
  // 60 items over 2 shards of 64 bins: every shard weight is exact.
  ShardedWeightedSpaceSaving fleet(SmallOptions(2));
  fleet.Ingest(WeightedRows(60, 10, 94));
  fleet.Flush();
  ASSERT_TRUE(fleet.IngestSerialized(Serialize(fleet.shard(0))));
  EXPECT_EQ(fleet.part_labels(), PartLabels::kMayRepeat);

  const WeightedSpaceSaving merged = fleet.Snapshot(4096, 3);
  EXPECT_EQ(merged.size(), 60u);
  for (uint64_t item = 0; item < 60; ++item) {
    const size_t s = fleet.ShardOf(item);
    const double local = fleet.shard(s).EstimateWeight(item);
    EXPECT_EQ(merged.EstimateWeight(item), s == 0 ? local + local : local)
        << item;
  }
  EXPECT_EQ(Serialize(merged), Serialize(MergeAll(fleet.Parts(), 4096, 3)));
}

}  // namespace
}  // namespace dsketch
