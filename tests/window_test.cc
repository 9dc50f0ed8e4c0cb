// The windowed epoch-ring subsystem: ring semantics (advance, row-count
// time, slots falling off), window-query totals, the estimate-identical
// cross-check against the hand-merged per-epoch construction the epoch
// bench used before the subsystem existed (on the §6.3 bursty and
// all-distinct arrival patterns), the decayed accumulator against the
// analytically decayed truth, the epoch-aligned sharded merge, and the
// window-snapshot wire round trip with replication through
// IngestSerialized.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "core/merge.h"
#include "core/subset_sum.h"
#include "query/windowed_source.h"
#include "stats/welford.h"
#include "stream/generators.h"
#include "test_scale.h"
#include "util/random.h"
#include "window/sharded_windowed.h"
#include "window/window_wire.h"
#include "window/windowed_sketch.h"
#include "wire/codec.h"
#include "wire/varint.h"

namespace dsketch {
namespace {

// Canonical entry order for exact comparisons (count ties by item).
std::vector<SketchEntry> Canonical(std::vector<SketchEntry> entries) {
  std::sort(entries.begin(), entries.end(),
            [](const SketchEntry& a, const SketchEntry& b) {
              if (a.count != b.count) return a.count > b.count;
              return a.item < b.item;
            });
  return entries;
}

WindowedSketchOptions SmallOptions() {
  WindowedSketchOptions opt;
  opt.window_epochs = 3;
  opt.epoch_capacity = 64;
  opt.merged_capacity = 128;
  opt.seed = 11;
  return opt;
}

TEST(WindowedSketchTest, RingAdvancesAndForgetsOldEpochs) {
  WindowedSketchOptions opt = SmallOptions();
  WindowedSpaceSaving sketch(opt);
  EXPECT_EQ(sketch.CurrentEpoch(), 0u);
  EXPECT_EQ(sketch.slots().size(), 1u);

  for (uint64_t e = 0; e < 5; ++e) {
    std::vector<uint64_t> rows(100, e);  // 100 rows of item e per epoch
    sketch.UpdateBatch(Span<const uint64_t>(rows.data(), rows.size()));
    if (e < 4) sketch.Advance();
  }
  EXPECT_EQ(sketch.CurrentEpoch(), 4u);
  EXPECT_EQ(sketch.slots().size(), 3u);  // ring holds epochs 2, 3, 4
  EXPECT_EQ(sketch.slots().front().epoch, 2u);
  EXPECT_EQ(sketch.TotalRows(), 500u);

  // Full-window merge covers exactly the ring: epochs 2-4, 300 rows.
  UnbiasedSpaceSaving window = sketch.QueryWindow();
  EXPECT_EQ(window.TotalCount(), 300);
  EXPECT_GT(window.EstimateCount(3), 0);
  EXPECT_EQ(window.EstimateCount(0), 0);  // fell off the ring

  // last_k = 1 sees only the open epoch.
  UnbiasedSpaceSaving newest = sketch.QueryWindow(1);
  EXPECT_EQ(newest.TotalCount(), 100);
  EXPECT_EQ(newest.EstimateCount(4), 100);
}

TEST(WindowedSketchTest, RowCountTimeAutoAdvances) {
  WindowedSketchOptions opt = SmallOptions();
  opt.rows_per_epoch = 50;
  WindowedSpaceSaving sketch(opt);
  std::vector<uint64_t> rows(175);
  for (size_t i = 0; i < rows.size(); ++i) rows[i] = i % 7;
  sketch.UpdateBatch(Span<const uint64_t>(rows.data(), rows.size()));
  // 175 rows at 50/epoch: epochs 0-2 closed full, epoch 3 open with 25.
  EXPECT_EQ(sketch.CurrentEpoch(), 3u);
  EXPECT_EQ(sketch.RowsInCurrentEpoch(), 25u);
  EXPECT_EQ(sketch.QueryWindow().TotalCount(), 125);  // epochs 1-3

  // Per-row updates honor the same boundary.
  sketch.Update(1);  // fills epoch 3 to 26 rows
  EXPECT_EQ(sketch.CurrentEpoch(), 3u);
  for (int i = 0; i < 24; ++i) sketch.Update(2);
  sketch.Update(3);  // 51st row: lands in epoch 4
  EXPECT_EQ(sketch.CurrentEpoch(), 4u);
  EXPECT_EQ(sketch.RowsInCurrentEpoch(), 1u);
}

TEST(WindowedSketchTest, AdvanceToSkipsEpochsWithEmptySlots) {
  WindowedSpaceSaving sketch(SmallOptions());
  std::vector<uint64_t> rows(40, 9);
  sketch.UpdateBatch(Span<const uint64_t>(rows.data(), rows.size()));
  sketch.AdvanceTo(5);
  EXPECT_EQ(sketch.CurrentEpoch(), 5u);
  EXPECT_EQ(sketch.slots().size(), 3u);  // epochs 3, 4, 5 — all empty
  EXPECT_EQ(sketch.QueryWindow().TotalCount(), 0);
  EXPECT_EQ(sketch.TotalRows(), 40u);  // expired rows still counted
}

TEST(WindowedSketchTest, AdvanceToFastForwardsHugeJumps) {
  WindowedSpaceSaving sketch(SmallOptions());  // window_epochs = 3
  std::vector<uint64_t> rows(40, 9);
  sketch.UpdateBatch(Span<const uint64_t>(rows.data(), rows.size()));

  // Would spin ~2^40 per-epoch closes without the fast-forward path.
  const uint64_t far = uint64_t{1} << 40;
  sketch.AdvanceTo(far);
  EXPECT_EQ(sketch.CurrentEpoch(), far);
  ASSERT_EQ(sketch.slots().size(), 3u);  // ring rebuilt: far-2 .. far
  EXPECT_EQ(sketch.slots().front().epoch, far - 2);
  EXPECT_EQ(sketch.QueryWindow().TotalCount(), 0);
  EXPECT_EQ(sketch.TotalRows(), 40u);  // expired rows still counted
  EXPECT_EQ(sketch.RowsInCurrentEpoch(), 0u);

  // The ring keeps working at the new clock, including a second jump
  // all the way to the largest stamp the decoders accept.
  sketch.Update(1);
  sketch.AdvanceTo(kMaxEpochStamp);
  EXPECT_EQ(sketch.CurrentEpoch(), kMaxEpochStamp);
  EXPECT_EQ(sketch.QueryWindow().TotalCount(), 0);
  EXPECT_EQ(sketch.TotalRows(), 41u);
}

TEST(WindowedSketchTest, FastForwardAgesDecayedMassAnalytically) {
  WindowedSketchOptions opt;
  opt.window_epochs = 2;
  opt.epoch_capacity = 64;
  opt.merged_capacity = 128;
  opt.half_life_epochs = 2.0;
  opt.seed = 13;
  WindowedSpaceSaving sketch(opt);
  std::vector<uint64_t> rows(1000);
  for (size_t i = 0; i < rows.size(); ++i) rows[i] = i % 50;
  sketch.UpdateBatch(Span<const uint64_t>(rows.data(), rows.size()));

  // A jump past the window ages the epoch-0 mass in one Scale: 1000
  // rows, 10 epochs old at half-life 2 → 1000 * 2^-5.
  sketch.AdvanceTo(10);
  const double truth = 1000.0 * std::exp2(-10.0 / 2.0);
  EXPECT_NEAR(sketch.QueryDecayed().TotalWeight(), truth, truth * 1e-9);

  // A lag beyond double's range drains the accumulator instead of
  // aborting on a zero scale factor.
  sketch.AdvanceTo(uint64_t{1} << 40);
  EXPECT_EQ(sketch.QueryDecayed().TotalWeight(), 0.0);
}

// Satellite cross-check: QueryWindow over last_k epochs is
// estimate-identical to the hand-merged per-epoch construction of
// bench/epoch_common.h (per-epoch sketches merged with MergeAll) when
// both use the same per-epoch seeds and merge seed — on the §6.3
// bursty and all-distinct arrival patterns.
void CrossCheckHandMerged(const std::vector<uint64_t>& stream,
                          size_t n_epochs, uint64_t seed) {
  const size_t m = 48;
  const size_t rows_per_epoch = stream.size() / n_epochs;

  WindowedSketchOptions opt;
  opt.window_epochs = n_epochs;  // keep every epoch mergeable
  opt.epoch_capacity = m;
  opt.merged_capacity = m;
  opt.seed = seed;
  WindowedSpaceSaving windowed(opt);

  std::vector<UnbiasedSpaceSaving> hand;
  for (size_t e = 0; e < n_epochs; ++e) {
    hand.emplace_back(m, seed + e);  // the ring's seed schedule
    const size_t begin = e * rows_per_epoch;
    const size_t len =
        e + 1 == n_epochs ? stream.size() - begin : rows_per_epoch;
    Span<const uint64_t> chunk(stream.data() + begin, len);
    hand.back().UpdateBatch(chunk);
    windowed.UpdateBatch(chunk);
    if (e + 1 < n_epochs) windowed.Advance();
  }

  for (size_t last_k : {size_t{1}, size_t{2}, n_epochs}) {
    const uint64_t merge_seed = 900000 + last_k;
    std::vector<const UnbiasedSpaceSaving*> win;
    for (size_t e = n_epochs - last_k; e < n_epochs; ++e) {
      win.push_back(&hand[e]);
    }
    UnbiasedSpaceSaving expected = MergeAll(win, m, merge_seed);
    UnbiasedSpaceSaving actual = windowed.QueryWindow(last_k, m, merge_seed);
    EXPECT_EQ(actual.TotalCount(), expected.TotalCount());
    EXPECT_EQ(Canonical(actual.Entries()), Canonical(expected.Entries()))
        << "last_k=" << last_k;
  }
}

TEST(WindowedSketchTest, WindowQueryMatchesHandMergedEpochsOnBursty) {
  // §6.3 bursty pattern: one hot item bursting between runs of fresh
  // distinct items, split into 4 epochs.
  std::vector<uint64_t> stream =
      BurstyStream(/*burst_item=*/0, /*burst_length=*/300,
                   /*quiet_length=*/300, /*periods=*/4, /*fresh_start_id=*/1);
  CrossCheckHandMerged(stream, 4, 4001);
}

TEST(WindowedSketchTest, WindowQueryMatchesHandMergedEpochsOnAllDistinct) {
  // §6.3 all-distinct pattern: every row a fresh item — the worst case
  // for any bin sketch, and the case where merge randomization matters
  // most (every bin ties at count 1).
  std::vector<uint64_t> stream = DistinctStream(2400);
  CrossCheckHandMerged(stream, 4, 4002);
}

// The merge-cache contract, pinned exactly: QueryWindow (hierarchical
// cached partials) and QueryWindowUncached (from-scratch W-way pairwise
// re-merge) are *bit-identical* — same entries in the same internal
// order — on the same state, for every last_k and merge seed. Checked
// cold (empty cache), warm (memo replay), and after every kind of
// invalidation the cache must survive: open-epoch ingest, single-step
// advances, and multi-epoch gap advances that expire cached spans.
TEST(WindowedSketchTest, CachedWindowQueriesAreBitIdenticalToUncached) {
  WindowedSketchOptions opt;
  opt.window_epochs = 8;
  opt.epoch_capacity = 48;
  opt.merged_capacity = 96;
  opt.seed = 501;
  WindowedSpaceSaving sketch(opt);
  Rng rng(17);

  auto expect_identical = [&](const char* stage) {
    for (size_t last_k : {size_t{1}, size_t{3}, size_t{8}}) {
      for (uint64_t ms : {uint64_t{1}, uint64_t{777}}) {
        const UnbiasedSpaceSaving cached = sketch.QueryWindow(last_k, 96, ms);
        const UnbiasedSpaceSaving raw =
            sketch.QueryWindowUncached(last_k, 96, ms);
        EXPECT_EQ(cached.Entries(), raw.Entries())
            << stage << " last_k=" << last_k << " merge_seed=" << ms;
        // Warm replay: the second query answers from the combine memo
        // and must reproduce the cold answer bit for bit.
        EXPECT_EQ(sketch.QueryWindow(last_k, 96, ms).Entries(),
                  cached.Entries())
            << stage << " (warm) last_k=" << last_k;
      }
    }
  };

  for (uint64_t e = 0; e < 12; ++e) {
    std::vector<uint64_t> rows;
    for (int i = 0; i < 400; ++i) rows.push_back(rng.NextBounded(120));
    sketch.UpdateBatch(Span<const uint64_t>(rows.data(), rows.size()));
    // Query mid-stream so later epochs invalidate a *warm* cache.
    if (e % 3 == 0) expect_identical("mid-stream");
    sketch.Advance();
  }
  expect_identical("after per-epoch advances");

  // Partial invalidation: rows into the open epoch dirty only the open
  // suffix — cached closed-span partials must still compose correctly.
  sketch.Update(5);
  expect_identical("after open-epoch ingest");

  // A gap advance expires cached spans off the ring's left edge and
  // inserts empty slots the level-0 lookup must treat as absent.
  sketch.AdvanceTo(sketch.CurrentEpoch() + 5);
  expect_identical("after gap advance");
}

// LoadState can replace slot contents at epochs the merge tree already
// cached (a restore absorbing a peer's ring mid-stream). A warm cache
// must not leak pre-restore partials into post-restore answers: queries
// after LoadState are bit-identical to the uncached path *and* to a
// sketch that held the donor state all along.
TEST(WindowedSketchTest, RestoreMidStreamRebuildsWarmMergeCache) {
  WindowedSketchOptions opt;
  opt.window_epochs = 4;
  opt.epoch_capacity = 48;
  opt.merged_capacity = 96;
  opt.seed = 502;
  WindowedSpaceSaving warm(opt);
  WindowedSpaceSaving donor(opt);

  Rng rng(23);
  for (uint64_t e = 0; e < 6; ++e) {
    std::vector<uint64_t> warm_rows;
    std::vector<uint64_t> donor_rows;
    for (int i = 0; i < 300; ++i) {
      warm_rows.push_back(rng.NextBounded(80));
      donor_rows.push_back(100000 + rng.NextBounded(80));  // disjoint labels
    }
    warm.UpdateBatch(Span<const uint64_t>(warm_rows.data(), warm_rows.size()));
    donor.UpdateBatch(
        Span<const uint64_t>(donor_rows.data(), donor_rows.size()));
    if (e + 1 < 6) {
      warm.Advance();
      donor.Advance();
    }
  }

  // Warm every cache layer: node partials and the combine memo.
  for (size_t last_k : {size_t{1}, size_t{2}, size_t{4}}) {
    (void)warm.QueryWindow(last_k, 96, 9);
  }

  warm.LoadState(donor.slots(), donor.decayed_accumulator(),
                 donor.RowsInCurrentEpoch(), donor.TotalRows());

  for (size_t last_k : {size_t{1}, size_t{2}, size_t{4}}) {
    const auto after = warm.QueryWindow(last_k, 96, 9).Entries();
    EXPECT_EQ(after, warm.QueryWindowUncached(last_k, 96, 9).Entries())
        << "last_k=" << last_k;
    EXPECT_EQ(after, donor.QueryWindow(last_k, 96, 9).Entries())
        << "last_k=" << last_k;
    // Every surviving answer is donor data: warm's old labels (< 100000)
    // must be gone entirely.
    for (const SketchEntry& e : after) EXPECT_GE(e.item, 100000u);
  }
}

// The closed-span memo outlives open-epoch ingest, so every other way a
// window's closed epochs can change must retire it. Differential check
// of an unsharded ring: after every op — single-row updates, batches
// that cross row-count epoch boundaries, AdvanceTo steps and gaps past
// the window, and LoadState of a donor ring whose clock matches the
// ring's (so only the memo's retirement tells the old sums from the
// donor's) or runs ahead of it — QueryWindow equals QueryWindowUncached.
// Every fifth op also cycles through more distinct last_k values than
// the memo keeps, so evicted entries are rebuilt.
TEST(WindowedSketchTest, MemoizedWindowsMatchUncachedAfterEveryOp) {
  WindowedSketchOptions opt;
  opt.window_epochs = 12;
  opt.epoch_capacity = 24;  // below the distinct items per epoch
  opt.merged_capacity = 40;
  opt.rows_per_epoch = 70;
  opt.seed = 503;
  WindowedSpaceSaving sketch(opt);
  Rng rng(29);
  auto batch = [&](uint64_t base) {
    std::vector<uint64_t> rows;
    for (uint64_t i = 0, n = 10 + rng.NextBounded(150); i < n; ++i) {
      rows.push_back(base + rng.NextBounded(90));
    }
    return rows;
  };
  auto expect_identical = [&](size_t last_k, int step) {
    const uint64_t ms = 40 + static_cast<uint64_t>(step);
    ASSERT_EQ(sketch.QueryWindow(last_k, 40, ms).Entries(),
              sketch.QueryWindowUncached(last_k, 40, ms).Entries())
        << "step " << step << " last_k " << last_k;
  };
  for (int step = 0; step < 150; ++step) {
    const uint64_t roll = rng.NextBounded(100);
    if (roll < 20) {
      sketch.Update(rng.NextBounded(90));
    } else if (roll < 60) {
      const std::vector<uint64_t> rows = batch(0);
      sketch.UpdateBatch(Span<const uint64_t>(rows.data(), rows.size()));
    } else if (roll < 75) {
      sketch.AdvanceTo(sketch.CurrentEpoch() + 1 + rng.NextBounded(3));
    } else if (roll < 82) {
      sketch.AdvanceTo(sketch.CurrentEpoch() + opt.window_epochs + 1 +
                       rng.NextBounded(3));
    } else {
      // A donor over disjoint labels, stepped through the ring's epochs
      // (and sometimes a few past them); some epochs stay empty.
      WindowedSketchOptions donor_opt = opt;
      donor_opt.rows_per_epoch = 0;
      WindowedSpaceSaving donor(donor_opt);
      const uint64_t newest =
          sketch.CurrentEpoch() +
          (rng.NextBounded(2) == 0 ? 0 : 1 + rng.NextBounded(3));
      for (uint64_t e = sketch.slots().front().epoch; e <= newest; ++e) {
        donor.AdvanceTo(e);
        if (rng.NextBounded(4) == 0) continue;
        const std::vector<uint64_t> rows = batch(1000);
        donor.UpdateBatch(Span<const uint64_t>(rows.data(), rows.size()));
      }
      sketch.LoadState(donor.slots(), donor.decayed_accumulator(),
                       donor.RowsInCurrentEpoch(), donor.TotalRows());
    }
    for (size_t last_k : {size_t{1}, size_t{2}, size_t{3}, size_t{8},
                          size_t{0}}) {
      expect_identical(last_k, step);
    }
    if (step % 5 == 0) {
      for (size_t last_k = 1; last_k <= opt.window_epochs; ++last_k) {
        expect_identical(last_k, step);
      }
    }
  }
}

TEST(WindowedSketchTest, DecayedViewTracksAnalyticTruth) {
  WindowedSketchOptions opt;
  opt.window_epochs = 2;  // ring shorter than the decay horizon
  opt.epoch_capacity = 256;
  opt.merged_capacity = 512;
  opt.half_life_epochs = 2.0;
  opt.seed = 77;
  WindowedSpaceSaving sketch(opt);

  // Epoch e carries 1000 rows of epoch-disjoint labels.
  const size_t kEpochs = 6;
  const size_t kRows = 1000;
  for (uint64_t e = 0; e < kEpochs; ++e) {
    std::vector<uint64_t> rows;
    rows.reserve(kRows);
    for (size_t i = 0; i < kRows; ++i) rows.push_back(e * 10000 + i % 200);
    sketch.UpdateBatch(Span<const uint64_t>(rows.data(), rows.size()));
    if (e + 1 < kEpochs) sketch.Advance();
  }

  WeightedSpaceSaving decayed = sketch.QueryDecayed();
  // Total decayed mass: sum over epochs of rows * 2^-(T-e)/hl, T = 5.
  double truth = 0.0;
  for (size_t e = 0; e < kEpochs; ++e) {
    truth += static_cast<double>(kRows) *
             std::exp2(-(static_cast<double>(kEpochs - 1 - e)) / 2.0);
  }
  EXPECT_NEAR(decayed.TotalWeight(), truth, truth * 1e-9);

  // Per-epoch decayed mass is preserved through the folds: the weight
  // landing on epoch e's label range matches its analytic decay.
  for (size_t e = 0; e < kEpochs; ++e) {
    auto est = EstimateSubsetSum(decayed, [e](uint64_t item) {
      return item / 10000 == e;
    });
    const double epoch_truth =
        static_cast<double>(kRows) *
        std::exp2(-(static_cast<double>(kEpochs - 1 - e)) / 2.0);
    EXPECT_NEAR(est.estimate, epoch_truth, truth * 0.35)
        << "epoch " << e;
  }
}

// Unbiasedness of the decayed view across seeds: the decayed subset sum
// of one epoch's labels averages to the analytic truth, rows * 2^-(age /
// half_life), within 3 standard errors. Capacities sit well below the
// distinct labels so the epoch sketches and the accumulator both reduce.
// DSKETCH_TEST_SCALE multiplies the seeds (20 here, 200 under `slow`).
constexpr uint64_t kDecayLabelsPerEpoch = 1000;

std::vector<uint64_t> DecayEpochRows(uint64_t epoch, size_t rows, Rng& rng) {
  std::vector<uint64_t> out;
  out.reserve(rows);
  for (size_t i = 0; i < rows; ++i) {
    out.push_back(epoch * kDecayLabelsPerEpoch + rng.NextBounded(120));
  }
  return out;
}

void ExpectUnbiased(const Welford& est, double truth, const char* what) {
  EXPECT_NEAR(est.mean(), truth, 3.0 * est.stderr_mean() + 1e-9 * truth)
      << what << ": mean " << est.mean() << " over " << est.count()
      << " seeds, stderr " << est.stderr_mean();
}

TEST(WindowedSketchTest, DecayedSubsetSumIsUnbiasedAcrossSeeds) {
  const uint64_t kTarget = 7;  // closed and off the ring by the query
  const uint64_t kEpochs = 12;
  const size_t kRows = 300;
  const double kHalfLife = 3.0;
  Welford est;
  for (int t = 0; t < test::ScaledTrials(20); ++t) {
    WindowedSketchOptions opt;
    opt.window_epochs = 4;
    opt.epoch_capacity = 48;
    opt.merged_capacity = 96;
    opt.half_life_epochs = kHalfLife;
    opt.seed = 9000 + static_cast<uint64_t>(t) * 100;
    WindowedSpaceSaving sketch(opt);
    Rng rng(700 + static_cast<uint64_t>(t));
    for (uint64_t e = 0; e < kEpochs; ++e) {
      const std::vector<uint64_t> rows = DecayEpochRows(e, kRows, rng);
      sketch.UpdateBatch(Span<const uint64_t>(rows.data(), rows.size()));
      if (e + 1 < kEpochs) sketch.Advance();
    }
    est.Add(EstimateSubsetSum(sketch.QueryDecayed(), [](uint64_t item) {
              return item / kDecayLabelsPerEpoch == kTarget;
            }).estimate);
  }
  const double truth =
      kRows * std::exp2(-static_cast<double>(kEpochs - 1 - kTarget) /
                        kHalfLife);
  ExpectUnbiased(est, truth, "ring");
}

TEST(ShardedWindowedTest, DecayedSubsetSumIsUnbiasedWithALaggingShard) {
  // Shard 3 gets no rows after the target epoch, so at the query its
  // open epoch is still the target: the fleet merge must add that open
  // epoch at its own stamp and line it up with the other shards'
  // accumulators.
  const uint64_t kTarget = 3;
  const uint64_t kEpochs = 9;
  const size_t kRows = 400;
  const double kHalfLife = 2.5;
  const size_t kLagging = 3;
  Welford est;
  for (int t = 0; t < test::ScaledTrials(20); ++t) {
    ShardedSketchOptions shard;
    shard.num_shards = 4;
    shard.seed = 5000 + static_cast<uint64_t>(t) * 10;
    WindowedSketchOptions window;
    window.window_epochs = 3;
    window.epoch_capacity = 16;
    window.merged_capacity = 40;
    window.half_life_epochs = kHalfLife;
    WindowedSketchSource source(shard, window);
    Rng rng(900 + static_cast<uint64_t>(t));
    for (uint64_t e = 0; e < kEpochs; ++e) {
      source.Advance(e);
      std::vector<uint64_t> rows = DecayEpochRows(e, kRows, rng);
      if (e > kTarget) {
        rows.erase(std::remove_if(rows.begin(), rows.end(),
                                  [&](uint64_t item) {
                                    return source.sharded().ShardOf(item) ==
                                           kLagging;
                                  }),
                   rows.end());
      }
      source.Ingest(Span<const uint64_t>(rows.data(), rows.size()));
    }
    source.Flush();
    EXPECT_EQ(source.sharded().shard(kLagging).CurrentEpoch(), kTarget);
    est.Add(EstimateSubsetSum(source.DecayedView(), [](uint64_t item) {
              return item / kDecayLabelsPerEpoch == kTarget;
            }).estimate);
  }
  const double truth =
      kRows * std::exp2(-static_cast<double>(kEpochs - 1 - kTarget) /
                        kHalfLife);
  ExpectUnbiased(est, truth, "4-shard fleet");
}

TEST(ShardedWindowedTest, EpochAlignedSnapshotPreservesWindowTotals) {
  ShardedSketchOptions shard;
  shard.num_shards = 3;
  shard.shard_capacity = 64;  // unused by the windowed factory
  shard.seed = 5;
  WindowedSketchOptions window;
  window.window_epochs = 3;
  window.epoch_capacity = 256;
  window.merged_capacity = 512;
  auto sharded = MakeShardedWindowed(shard, window);

  // 4 epochs x 3000 rows of epoch-disjoint labels, shipped as stamped
  // rows in one producer stream.
  const size_t kEpochs = 4;
  const size_t kRows = 3000;
  std::vector<EpochRow> rows;
  rows.reserve(kEpochs * kRows);
  Rng rng(99);
  for (uint64_t e = 0; e < kEpochs; ++e) {
    for (size_t i = 0; i < kRows; ++i) {
      rows.push_back({e * 100000 + rng.NextBounded(400), e});
    }
  }
  sharded->Ingest(Span<const EpochRow>(rows.data(), rows.size()));
  sharded->Flush();

  WindowedSpaceSaving merged = sharded->Snapshot(window.epoch_capacity, 123);
  EXPECT_EQ(merged.CurrentEpoch(), kEpochs - 1);
  EXPECT_EQ(merged.slots().size(), window.window_epochs);
  // Ring totals: epochs 1-3 (epoch 0 fell off), 9000 rows.
  EXPECT_EQ(merged.QueryWindow().TotalCount(),
            static_cast<int64_t>(3 * kRows));
  // last_k = 1: exactly the newest epoch's rows, all in its label range.
  UnbiasedSpaceSaving newest = merged.QueryWindow(1);
  EXPECT_EQ(newest.TotalCount(), static_cast<int64_t>(kRows));
  for (const SketchEntry& e : newest.Entries()) {
    EXPECT_EQ(e.item / 100000, kEpochs - 1);
  }
}

TEST(ShardedWindowedTest, MergeCreditsOpenEpochRowsToAlignedShardsOnly) {
  // A lagging shard's open-epoch rows belong to a *closed* slot of the
  // merged ring, so they must not inflate the merged open-epoch count.
  WindowedSketchOptions opt;
  opt.window_epochs = 4;
  opt.epoch_capacity = 16;
  opt.merged_capacity = 32;
  opt.seed = 3;
  WindowedSpaceSaving a(opt);
  WindowedSpaceSaving b(opt);
  a.AdvanceTo(5);
  for (int i = 0; i < 10; ++i) a.Update(1);
  b.AdvanceTo(3);  // lagging: saw no rows for epochs 4-5
  for (int i = 0; i < 7; ++i) b.Update(2);

  WindowedSpaceSaving merged =
      MergeShards(std::vector<WindowedSpaceSaving>{a, b}, 16, 9);
  EXPECT_EQ(merged.CurrentEpoch(), 5u);
  EXPECT_EQ(merged.RowsInCurrentEpoch(), 10u);  // shard a only
  EXPECT_EQ(merged.TotalRows(), 17u);
  // The lagging shard's rows still live in their own (closed) slot.
  EXPECT_EQ(merged.QueryWindow(3, 16, 4).TotalCount(), 17);
  EXPECT_EQ(merged.QueryWindow(1, 16, 4).TotalCount(), 10);
}

TEST(ShardedWindowedTest, DecayedMergeSurvivesLagBeyondDoubleRange) {
  // A shard lagging so far behind the merged clock that its age factor
  // underflows double (trivial with timestamp-valued epochs) must drain
  // in the merge, not hit Scale's factor > 0 contract.
  WindowedSketchOptions opt;
  opt.window_epochs = 2;
  opt.epoch_capacity = 16;
  opt.merged_capacity = 32;
  opt.half_life_epochs = 2.0;
  opt.seed = 3;
  WindowedSpaceSaving a(opt);
  WindowedSpaceSaving b(opt);
  for (int i = 0; i < 100; ++i) b.Update(2);
  b.Advance();  // 100 rows of item 2 now in b's decayed accumulator
  a.AdvanceTo(uint64_t{1} << 40);
  for (int i = 0; i < 10; ++i) a.Update(5);

  WindowedSpaceSaving merged =
      MergeShards(std::vector<WindowedSpaceSaving>{a, b}, 16, 9);
  EXPECT_EQ(merged.CurrentEpoch(), uint64_t{1} << 40);
  // b's mass (accumulator and open epoch both) decayed past double's
  // range; only a's open-epoch rows carry weight.
  EXPECT_NEAR(merged.QueryDecayed().TotalWeight(), 10.0, 1e-9);
}

TEST(WindowWireTest, RingRoundTripsThroughWireBytes) {
  WindowedSketchOptions opt = SmallOptions();
  opt.rows_per_epoch = 0;
  opt.half_life_epochs = 3.0;
  WindowedSpaceSaving sketch(opt);
  Rng rng(42);
  for (uint64_t e = 0; e < 5; ++e) {
    std::vector<uint64_t> rows;
    for (int i = 0; i < 500; ++i) rows.push_back(rng.NextBounded(90));
    sketch.UpdateBatch(Span<const uint64_t>(rows.data(), rows.size()));
    if (e < 4) sketch.Advance();
  }

  const std::string bytes = SerializeWindowed(sketch);
  auto info = wire::DescribeWire(bytes);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->kind, kWireKindWindowed);
  EXPECT_STREQ(info->kind_name, "windowed_sketch");
  EXPECT_EQ(info->version, wire::kVersionCurrent);

  auto restored = DeserializeWindowed(bytes, opt.seed);
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(restored->CurrentEpoch(), sketch.CurrentEpoch());
  EXPECT_EQ(restored->TotalRows(), sketch.TotalRows());
  ASSERT_EQ(restored->slots().size(), sketch.slots().size());
  for (size_t i = 0; i < sketch.slots().size(); ++i) {
    EXPECT_EQ(restored->slots()[i].epoch, sketch.slots()[i].epoch);
    EXPECT_EQ(Canonical(restored->slots()[i].sketch.Entries()),
              Canonical(sketch.slots()[i].sketch.Entries()));
  }
  // The restored total re-sums the entries, so it may differ from the
  // live accumulator's scale/merge history by fp association only.
  // DecayedClosedView is the settled semantics on both sides (the live
  // ring may still hold epochs in the amortized fold batch).
  const double live_total = sketch.DecayedClosedView().TotalWeight();
  EXPECT_NEAR(restored->DecayedClosedView().TotalWeight(), live_total,
              live_total * 1e-12);
  // Window queries on the restored ring behave identically.
  EXPECT_EQ(restored->QueryWindow(2, 64, 7).TotalCount(),
            sketch.QueryWindow(2, 64, 7).TotalCount());
}

TEST(WindowWireTest, ShardedFleetReplicatesRingState) {
  ShardedSketchOptions shard;
  shard.num_shards = 2;
  shard.seed = 21;
  WindowedSketchOptions window;
  window.window_epochs = 4;
  window.epoch_capacity = 128;
  window.merged_capacity = 256;

  WindowedSketchSource primary(shard, window);
  std::vector<uint64_t> items;
  Rng rng(7);
  for (uint64_t e = 0; e < 3; ++e) {
    items.clear();
    for (int i = 0; i < 2000; ++i) {
      items.push_back(e * 1000 + rng.NextBounded(300));
    }
    primary.Advance(e);
    primary.Ingest(Span<const uint64_t>(items.data(), items.size()));
  }
  primary.Flush();
  const std::string ring = primary.SaveSnapshot();

  // A fresh replica catches up from the ring bytes alone: totals and
  // per-window totals match exactly (totals are preserved by every
  // reduction on the path).
  ShardedSketchOptions shard_b = shard;
  shard_b.seed = 4000;
  WindowedSketchSource replica(shard_b, window);
  ASSERT_TRUE(replica.RestoreSnapshot(ring));
  EXPECT_EQ(replica.View().TotalCount(), primary.View().TotalCount());
  EXPECT_EQ(replica.WindowView(1).TotalCount(),
            primary.WindowView(1).TotalCount());
  EXPECT_EQ(replica.WindowView(2).TotalCount(),
            primary.WindowView(2).TotalCount());

  // Malformed bytes are refused with the state untouched.
  EXPECT_FALSE(replica.RestoreSnapshot("not a ring"));
  EXPECT_EQ(replica.sharded().num_absorbed(), 1u);
}

// Regression: WindowView(last_k) with last_k >= the current ring length
// used to alias the full-window cache — a fixed last_k silently changed
// meaning ("the whole ring") while the ring was still short, and the
// cached sketch was not recomputed when the ring grew past last_k. The
// caches are now keyed by the *caller's* last_k: a fixed last_k means
// "the newest k epochs" at every ring length, across interleaved
// full-window reads and mutations.
TEST(WindowedSourceTest, FixedLastKMeansNewestKEpochsWhileRingGrows) {
  ShardedSketchOptions shard;
  shard.num_shards = 2;
  shard.seed = 61;
  WindowedSketchOptions window;
  window.window_epochs = 6;
  window.epoch_capacity = 64;
  window.merged_capacity = 128;
  WindowedSketchSource source(shard, window);

  // Epoch e carries a distinct row count, so each expected window total
  // identifies exactly which epochs were merged.
  auto ingest_epoch = [&](uint64_t e, size_t n) {
    source.Advance(e);
    std::vector<uint64_t> rows(n, e);
    source.Ingest(Span<const uint64_t>(rows.data(), rows.size()));
  };

  ingest_epoch(0, 100);
  // Ring holds 1 epoch: last_k=3 clamps to it, but stays keyed as 3.
  EXPECT_EQ(source.WindowView(3).TotalCount(), 100);
  ingest_epoch(1, 200);
  EXPECT_EQ(source.WindowView(3).TotalCount(), 300);
  EXPECT_EQ(source.View().TotalCount(), 300);  // interleaved full read
  ingest_epoch(2, 400);
  EXPECT_EQ(source.WindowView(3).TotalCount(), 700);
  ingest_epoch(3, 800);
  // Ring now exceeds last_k: the view must drop epoch 0, not keep
  // serving the full-window merge it aliased while the ring was short.
  EXPECT_EQ(source.WindowView(3).TotalCount(), 1400);
  EXPECT_EQ(source.View().TotalCount(), 1500);
  // Cached replay of the same last_k is stable...
  EXPECT_EQ(source.WindowView(3).TotalCount(), 1400);
  // ...switching last_k swaps the one partial-window cache...
  EXPECT_EQ(source.WindowView(1).TotalCount(), 800);
  // ...and switching back re-merges rather than serving the stale k.
  EXPECT_EQ(source.WindowView(3).TotalCount(), 1400);
}

// The documented reference contract: views stay valid until the next
// Ingest/IngestEpoch/Advance/RestoreSnapshot. Reads — DecayedView,
// MergedRing, SaveSnapshot — must never destroy a view some caller
// still holds (they used to, lazily, when the first read after a
// mutation reset every cache). Value equality is asserted through the
// held references; asan turns any stale-reference bug into a hard fail.
TEST(WindowedSourceTest, ReadsNeverInvalidateHeldViews) {
  ShardedSketchOptions shard;
  shard.num_shards = 2;
  shard.seed = 67;
  WindowedSketchOptions window;
  window.window_epochs = 4;
  window.epoch_capacity = 64;
  window.merged_capacity = 128;
  window.half_life_epochs = 2.0;
  WindowedSketchSource source(shard, window);

  std::vector<uint64_t> rows(150, 1);
  source.Ingest(Span<const uint64_t>(rows.data(), rows.size()));
  source.Advance(1);
  std::vector<uint64_t> more(50, 2);
  source.Ingest(Span<const uint64_t>(more.data(), more.size()));

  const UnbiasedSpaceSaving& full = source.View();
  const int64_t full_total = full.TotalCount();
  const UnbiasedSpaceSaving& win = source.WindowView(1);
  const int64_t win_total = win.TotalCount();
  EXPECT_EQ(full_total, 200);
  EXPECT_EQ(win_total, 50);

  // Reads on a clean source: re-derive whatever they need, but leave
  // handed-out views alone.
  (void)source.DecayedView();
  (void)source.MergedRing();
  const std::string snapshot = source.SaveSnapshot();
  EXPECT_FALSE(snapshot.empty());
  EXPECT_EQ(full.TotalCount(), full_total);
  EXPECT_EQ(win.TotalCount(), win_total);

  // A mutation is the invalidation point — fresh views see it.
  std::vector<uint64_t> last(25, 3);
  source.Ingest(Span<const uint64_t>(last.data(), last.size()));
  EXPECT_EQ(source.View().TotalCount(), 225);
  EXPECT_EQ(source.WindowView(1).TotalCount(), 75);
}

// One step of a windowed source's op stream, replayable on a new source.
struct SourceOp {
  enum Kind { kIngest, kIngestEpoch, kAdvance, kRestore } kind;
  std::vector<uint64_t> items;  // kIngest
  std::vector<EpochRow> rows;   // kIngestEpoch
  uint64_t epoch = 0;           // kAdvance
  std::string ring;             // kRestore: a peer's SaveSnapshot bytes
};

void ApplyOp(const SourceOp& op, WindowedSketchSource& source) {
  switch (op.kind) {
    case SourceOp::kIngest:
      source.Ingest(Span<const uint64_t>(op.items.data(), op.items.size()));
      break;
    case SourceOp::kIngestEpoch:
      source.IngestEpoch(Span<const EpochRow>(op.rows.data(), op.rows.size()));
      break;
    case SourceOp::kAdvance:
      source.Advance(op.epoch);
      break;
    case SourceOp::kRestore:
      ASSERT_TRUE(source.RestoreSnapshot(op.ring));
      break;
  }
}

// The merged ring is refreshed in place after each mutation: only the
// epochs that can still change are re-merged, and merge-tree nodes below
// them survive. Differential check against a fresh source that replays
// the same ops and merges once, from scratch: after every op the ring's
// bytes and the last-k views must match exactly. The op mix covers stale
// stamps, a shard that gets no rows for more epochs than the window
// holds, producer advances past W, restores of peer rings mid-stream,
// and decayed mode.
class WindowedSourceRefreshTest : public ::testing::TestWithParam<double> {};

TEST_P(WindowedSourceRefreshTest, InPlaceRefreshMatchesFreshMergeAfterEveryOp) {
  ShardedSketchOptions shard;
  shard.num_shards = 3;
  shard.seed = 91;
  WindowedSketchOptions window;
  window.window_epochs = 8;
  window.epoch_capacity = 24;  // below the distinct items per epoch
  window.merged_capacity = 40;
  window.half_life_epochs = GetParam();

  WindowedSketchSource live(shard, window);
  const size_t kIdleShard = 2;
  Rng rng(2024);
  std::vector<SourceOp> ops;
  for (int step = 0; step < 90; ++step) {
    // Steps [15, 55): the idle shard gets no rows while the producer
    // advances well past the window.
    const bool idle = step >= 15 && step < 55;
    auto draw_item = [&] {
      for (;;) {
        const uint64_t item = rng.NextBounded(400);
        if (!idle || live.sharded().ShardOf(item) != kIdleShard) return item;
      }
    };
    SourceOp op;
    const uint64_t epoch = live.current_epoch();
    const uint64_t roll = rng.NextBounded(100);
    if (roll < 40) {
      op.kind = SourceOp::kIngest;
      for (uint64_t i = 0, n = 20 + rng.NextBounded(120); i < n; ++i) {
        op.items.push_back(draw_item());
      }
    } else if (roll < 62) {
      // Stale stamps (credited to each shard's open epoch) mixed with
      // stamps one ahead of the producer.
      op.kind = SourceOp::kIngestEpoch;
      for (uint64_t i = 0, n = 20 + rng.NextBounded(80); i < n; ++i) {
        const uint64_t back = rng.NextBounded(6);
        const uint64_t stamp =
            rng.NextBounded(8) == 0 ? epoch + 1 : epoch - std::min(back, epoch);
        op.rows.push_back({draw_item(), stamp});
      }
    } else if (roll < 85) {
      op.kind = SourceOp::kAdvance;
      op.epoch = epoch + 1 + rng.NextBounded(2);
    } else if (roll < 92) {
      op.kind = SourceOp::kAdvance;
      op.epoch = epoch + window.window_epochs + 1 + rng.NextBounded(3);
    } else {
      // A peer ring a few epochs behind or ahead of the producer.
      ShardedSketchOptions peer_shard = shard;
      peer_shard.num_shards = 2;
      peer_shard.seed = 500 + static_cast<uint64_t>(step);
      WindowedSketchSource peer(peer_shard, window);
      const uint64_t peer_epoch = epoch + rng.NextBounded(4);
      for (uint64_t e = peer_epoch >= 3 ? peer_epoch - 3 : 0; e <= peer_epoch;
           ++e) {
        std::vector<uint64_t> rows;
        for (int i = 0; i < 60; ++i) {
          rows.push_back(1000 + rng.NextBounded(200));
        }
        peer.Advance(e);
        peer.Ingest(Span<const uint64_t>(rows.data(), rows.size()));
      }
      op.kind = SourceOp::kRestore;
      op.ring = peer.SaveSnapshot();
    }
    ApplyOp(op, live);
    ops.push_back(std::move(op));

    WindowedSketchSource fresh(shard, window);
    for (const SourceOp& replay : ops) ApplyOp(replay, fresh);
    ASSERT_EQ(SerializeWindowed(live.MergedRing()),
              SerializeWindowed(fresh.MergedRing()))
        << "step " << step;
    for (size_t last_k :
         {size_t{1}, size_t{2}, size_t{3}, size_t{8}, size_t{0}}) {
      ASSERT_EQ(live.WindowView(last_k).Entries(),
                fresh.WindowView(last_k).Entries())
          << "step " << step << " last_k " << last_k;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(DecayOffAndOn, WindowedSourceRefreshTest,
                         ::testing::Values(0.0, 2.0));

// Rows into the open epoch re-merge only that epoch while every shard
// is at it: the closed-span sums the previous query memoized survive the
// refresh, so a repeated last-k query answers from the memo (patched
// with the open epoch) and misses no merge-tree node.
TEST(WindowedSourceTest, OpenEpochIngestKeepsEveryClosedNodeCached) {
  ShardedSketchOptions shard;
  shard.num_shards = 3;
  shard.seed = 93;
  WindowedSketchOptions window;
  window.window_epochs = 8;
  window.epoch_capacity = 32;
  window.merged_capacity = 64;
  WindowedSketchSource source(shard, window);

  Rng rng(5);
  auto ingest = [&] {
    std::vector<uint64_t> rows;
    for (int i = 0; i < 300; ++i) rows.push_back(rng.NextBounded(500));
    source.Ingest(Span<const uint64_t>(rows.data(), rows.size()));
  };
  for (uint64_t e = 0; e < 12; ++e) {
    source.Advance(e);
    ingest();
  }
  (void)source.WindowView(8);  // builds the closed spans' nodes
  ingest();
  const uint64_t misses = window_metrics::NodeCacheMisses().Value();
  const uint64_t memo_hits = window_metrics::CombineMemoHits().Value();
  const uint64_t remerged = window_metrics::EpochsRemerged().Value();
  const int64_t total = source.WindowView(8).TotalCount();
  EXPECT_EQ(window_metrics::EpochsRemerged().Value() - remerged, 1u);
  EXPECT_EQ(window_metrics::NodeCacheMisses().Value(), misses);
  EXPECT_EQ(window_metrics::CombineMemoHits().Value() - memo_hits, 1u);
  EXPECT_EQ(total, 9 * 300);  // the open epoch holds two batches
}

TEST(WindowWireTest, RestoreFromAheadPeerAdvancesProducerEpoch) {
  ShardedSketchOptions shard;
  shard.num_shards = 2;
  shard.seed = 31;
  WindowedSketchOptions window;
  window.window_epochs = 3;
  window.epoch_capacity = 64;
  window.merged_capacity = 128;

  WindowedSketchSource primary(shard, window);
  primary.Advance(5);
  std::vector<uint64_t> peer_rows(200, 1);
  primary.Ingest(Span<const uint64_t>(peer_rows.data(), peer_rows.size()));
  primary.Flush();
  const std::string ring = primary.SaveSnapshot();

  ShardedSketchOptions shard_b = shard;
  shard_b.seed = 77;
  WindowedSketchSource replica(shard_b, window);
  ASSERT_TRUE(replica.RestoreSnapshot(ring));
  // The replica's producer clock adopts the peer's newer epoch...
  EXPECT_EQ(replica.current_epoch(), 5u);
  // ...so rows ingested after the restore are stamped inside the merged
  // window instead of landing at the stale epoch 0, outside the 3-epoch
  // ring, and silently vanishing from window queries.
  std::vector<uint64_t> local_rows(100, 2);
  replica.Ingest(Span<const uint64_t>(local_rows.data(), local_rows.size()));
  EXPECT_EQ(replica.View().TotalCount(), 300);
  EXPECT_EQ(replica.WindowView(1).TotalCount(), 300);  // all in epoch 5
}

// Minimal well-formed ring blob with one (empty) slot at `slot_epoch`,
// mirroring SerializeWindowed's layout byte for byte.
std::string RingBlobWithSlotEpoch(uint64_t slot_epoch,
                                  double half_life = 0.0) {
  std::string out;
  wire::WriteEnvelope(out, kWireKindWindowed, wire::kVersionCurrent);
  wire::VarintWriter w(out);
  w.PutVarint(4);          // window_epochs
  w.PutVarint(16);         // epoch_capacity
  w.PutVarint(32);         // merged_capacity
  w.PutVarint(0);          // rows_per_epoch
  w.PutDouble(half_life);  // half_life_epochs
  w.PutVarint(0);          // rows_in_epoch
  w.PutVarint(0);          // total_rows
  w.PutVarint(1);          // n_slots
  const std::string inner = Serialize(UnbiasedSpaceSaving(16, 1));
  w.PutVarint(slot_epoch);
  w.PutVarint(inner.size());
  out.append(inner);
  if (half_life > 0.0) {
    w.PutByte(1);
    const std::string acc = Serialize(WeightedSpaceSaving(32, 1));
    w.PutVarint(acc.size());
    out.append(acc);
  } else {
    w.PutByte(0);
  }
  return out;
}

TEST(WindowWireTest, SlotEpochsBeyondTheClockCapAreRejected) {
  // Live stamps are capped at service decode; a restored ring must obey
  // the same clock bound (the cap itself is the last accepted value).
  EXPECT_TRUE(
      DeserializeWindowed(RingBlobWithSlotEpoch(kMaxEpochStamp)).has_value());
  EXPECT_FALSE(DeserializeWindowed(RingBlobWithSlotEpoch(kMaxEpochStamp + 1))
                   .has_value());
}

TEST(WindowWireTest, UnderflowHalfLivesAreRejected) {
  // Half-lives below ~0.00094 epochs underflow the per-epoch factor to
  // zero — decay silently off while half_life > 0. The constructors
  // refuse the configuration (see death_test), so the decoder must too:
  // a blob claiming one would otherwise feed the constructor CHECK from
  // hostile bytes, breaking the never-abort decode contract.
  EXPECT_TRUE(ValidHalfLife(0.0));
  EXPECT_TRUE(ValidHalfLife(2.0));
  EXPECT_FALSE(ValidHalfLife(1e-5));
  EXPECT_TRUE(DeserializeWindowed(RingBlobWithSlotEpoch(3, /*half_life=*/2.0))
                  .has_value());
  EXPECT_FALSE(DeserializeWindowed(RingBlobWithSlotEpoch(3, /*half_life=*/1e-5))
                   .has_value());
}

TEST(WindowWireTest, DecayedFleetSurvivesRestoredNonDecayedRing) {
  // A restored blob carries its own options; a half_life-0 ring
  // absorbed into a decay-enabled fleet must age under the *fleet's*
  // half-life when it lags (its own would give factor exp2(-lag/0) = 0,
  // which Scale CHECK-rejects — a remotely reachable abort via RESTORE).
  ShardedSketchOptions shard;
  shard.num_shards = 2;
  shard.seed = 41;
  WindowedSketchOptions window;
  window.window_epochs = 4;
  window.epoch_capacity = 16;
  window.merged_capacity = 32;
  window.half_life_epochs = 2.0;
  WindowedSketchSource source(shard, window);
  std::vector<uint64_t> rows(50, 6);
  source.Ingest(Span<const uint64_t>(rows.data(), rows.size()));

  ASSERT_TRUE(source.RestoreSnapshot(RingBlobWithSlotEpoch(3)));
  source.Advance(10);
  std::vector<uint64_t> more(20, 7);  // stamped 10: the restored ring lags
  source.Ingest(Span<const uint64_t>(more.data(), more.size()));
  WeightedSpaceSaving decayed = source.DecayedView();  // used to abort
  // Open-epoch rows at weight 1 plus the epoch-0 rows aged 10 epochs.
  EXPECT_NEAR(decayed.TotalWeight(),
              20.0 + 50.0 * std::exp2(-10.0 / 2.0), 1e-6);
  EXPECT_EQ(source.current_epoch(), 10u);
}

TEST(WindowWireTest, PeekNewestEpochWalksSlotHeadersOnly) {
  WindowedSpaceSaving sketch(SmallOptions());
  std::vector<uint64_t> rows(30, 4);
  sketch.UpdateBatch(Span<const uint64_t>(rows.data(), rows.size()));
  sketch.AdvanceTo(9);
  sketch.Update(5);
  const std::string bytes = SerializeWindowed(sketch);
  std::optional<uint64_t> newest = PeekWindowedNewestEpoch(bytes);
  ASSERT_TRUE(newest.has_value());
  EXPECT_EQ(*newest, 9u);
  // Malformed input degrades to nullopt, never a crash.
  EXPECT_FALSE(PeekWindowedNewestEpoch("garbage").has_value());
  EXPECT_FALSE(
      PeekWindowedNewestEpoch(std::string_view(bytes.data(), 10)).has_value());
}

TEST(WindowWireTest, HostileRingHeadersAreRejected) {
  // A valid blob tampered at the ring-metadata level must be refused
  // cleanly (the adversarial suite sweeps bit flips; these pin the
  // specific caps).
  WindowedSpaceSaving sketch(SmallOptions());
  std::vector<uint64_t> rows(50, 3);
  sketch.UpdateBatch(Span<const uint64_t>(rows.data(), rows.size()));
  const std::string good = SerializeWindowed(sketch);
  ASSERT_TRUE(DeserializeWindowed(good).has_value());

  // Truncations at every boundary.
  for (size_t cut = 0; cut < good.size(); ++cut) {
    EXPECT_FALSE(
        DeserializeWindowed(std::string_view(good.data(), cut)).has_value())
        << "cut at " << cut;
  }
  // Trailing garbage.
  EXPECT_FALSE(DeserializeWindowed(good + std::string(1, '\0')).has_value());
  // Wrong kind byte (an unbiased blob is not a ring).
  UnbiasedSpaceSaving flat(8, 1);
  flat.Update(1);
  EXPECT_FALSE(DeserializeWindowed(Serialize(flat)).has_value());
}

}  // namespace
}  // namespace dsketch
