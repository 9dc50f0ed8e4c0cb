// Tests for the §5.3 generalizations: weighted Unbiased Space Saving
// (arbitrary positive weights, heap-backed PPS reduction) and forward-
// decay time-decayed aggregation.

#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "core/decayed_space_saving.h"
#include "core/weighted_space_saving.h"
#include "stats/welford.h"
#include "stream/generators.h"
#include "util/random.h"

namespace dsketch {
namespace {

TEST(WeightedSpaceSavingTest, ExactWhileUnderCapacity) {
  WeightedSpaceSaving sketch(8, 1);
  sketch.Update(1, 2.5);
  sketch.Update(2, 4.0);
  sketch.Update(1, 0.5);
  EXPECT_DOUBLE_EQ(sketch.EstimateWeight(1), 3.0);
  EXPECT_DOUBLE_EQ(sketch.EstimateWeight(2), 4.0);
  EXPECT_DOUBLE_EQ(sketch.TotalWeight(), 7.0);
  EXPECT_EQ(sketch.MinWeight(), 0.0);  // not yet full
}

TEST(WeightedSpaceSavingTest, TotalWeightPreserved) {
  WeightedSpaceSaving sketch(16, 2);
  Rng rng(160);
  double total = 0;
  for (int i = 0; i < 20000; ++i) {
    double w = 0.1 + rng.NextDouble() * 10;
    sketch.Update(rng.NextBounded(500), w);
    total += w;
  }
  double bin_sum = 0;
  for (const auto& e : sketch.Entries()) bin_sum += e.weight;
  EXPECT_NEAR(bin_sum, total, 1e-6 * total);
  EXPECT_NEAR(sketch.TotalWeight(), total, 1e-6 * total);
}

TEST(WeightedSpaceSavingTest, UnitWeightsAreUnbiased) {
  std::vector<int64_t> counts{50, 25, 10, 5, 4, 3, 2, 1, 1, 1};
  std::vector<Welford> est(counts.size());
  for (int t = 0; t < 10000; ++t) {
    Rng rng(200000 + t);
    auto rows = PermutedStream(counts, rng);
    WeightedSpaceSaving sketch(4, 210000 + t);
    for (uint64_t item : rows) sketch.Update(item, 1.0);
    for (size_t i = 0; i < counts.size(); ++i) {
      est[i].Add(sketch.EstimateWeight(i));
    }
  }
  for (size_t i = 0; i < counts.size(); ++i) {
    EXPECT_NEAR(est[i].mean(), static_cast<double>(counts[i]),
                5 * est[i].stderr_mean() + 0.05)
        << "item " << i;
  }
}

TEST(WeightedSpaceSavingTest, RealWeightsAreUnbiased) {
  // Items with fractional weights; per-item totals must be preserved in
  // expectation under the PPS collapse.
  const std::vector<double> weights{12.5, 6.25, 3.0, 1.5, 0.75,
                                    0.6,  0.4,  0.3, 0.2, 0.1};
  std::vector<Welford> est(weights.size());
  for (int t = 0; t < 20000; ++t) {
    Rng order_rng(220000 + t);
    std::vector<size_t> order(weights.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    order_rng.Shuffle(order.data(), order.size());

    WeightedSpaceSaving sketch(4, 230000 + t);
    for (size_t idx : order) sketch.Update(idx, weights[idx]);
    for (size_t i = 0; i < weights.size(); ++i) {
      est[i].Add(sketch.EstimateWeight(i));
    }
  }
  for (size_t i = 0; i < weights.size(); ++i) {
    EXPECT_NEAR(est[i].mean(), weights[i], 5 * est[i].stderr_mean() + 0.01)
        << "item " << i;
  }
}

TEST(WeightedSpaceSavingTest, HeavyWeightNeverDisplacedIncorrectly) {
  WeightedSpaceSaving sketch(2, 3);
  sketch.Update(1, 1e6);
  for (int i = 0; i < 1000; ++i) {
    sketch.Update(static_cast<uint64_t>(10 + i), 0.001);
  }
  EXPECT_TRUE(sketch.Contains(1));
  EXPECT_GE(sketch.EstimateWeight(1), 1e6);
}

TEST(WeightedSpaceSavingTest, ScaleMultipliesEverything) {
  WeightedSpaceSaving sketch(4, 4);
  sketch.Update(1, 2.0);
  sketch.Update(2, 3.0);
  sketch.Scale(0.5);
  EXPECT_DOUBLE_EQ(sketch.EstimateWeight(1), 1.0);
  EXPECT_DOUBLE_EQ(sketch.EstimateWeight(2), 1.5);
  EXPECT_DOUBLE_EQ(sketch.TotalWeight(), 2.5);
}

TEST(WeightedSpaceSavingTest, LoadEntriesRebuildsHeap) {
  WeightedSpaceSaving sketch(4, 5);
  sketch.LoadEntries({{1, 5.0}, {2, 1.0}, {3, 3.0}});
  EXPECT_DOUBLE_EQ(sketch.EstimateWeight(2), 1.0);
  auto entries = sketch.Entries();
  EXPECT_EQ(entries[0].item, 1u);
  // Continue updating: the heap invariant must hold.
  sketch.Update(4, 2.0);
  sketch.Update(5, 10.0);  // forces a collapse
  double total = 0;
  for (const auto& e : sketch.Entries()) total += e.weight;
  EXPECT_NEAR(total, 21.0, 1e-9);
}

TEST(WeightedSpaceSavingTest, SubsetSumWithVariance) {
  WeightedSpaceSaving sketch(4, 6);
  sketch.LoadEntries({{1, 10.0}, {2, 20.0}, {3, 30.0}, {4, 40.0}});
  auto est = EstimateSubsetSum(sketch, [](uint64_t x) { return x <= 2; });
  EXPECT_DOUBLE_EQ(est.estimate, 30.0);
  EXPECT_EQ(est.items_in_sample, 2u);
  EXPECT_DOUBLE_EQ(est.variance, 10.0 * 10.0 * 2);
}

TEST(DecayedSpaceSavingTest, NoDecayAtQueryTimeOfLastUpdate) {
  DecayedSpaceSaving sketch(8, /*half_life=*/100.0, 1);
  sketch.Update(1, 0.0);
  sketch.Update(1, 0.0);
  EXPECT_NEAR(sketch.EstimateDecayedCount(1, 0.0), 2.0, 1e-12);
}

TEST(DecayedSpaceSavingTest, HalfLifeHalvesOldRows) {
  DecayedSpaceSaving sketch(8, /*half_life=*/10.0, 2);
  sketch.Update(1, 0.0);
  // A row observed at t=0 queried at t=10 contributes 1/2.
  EXPECT_NEAR(sketch.EstimateDecayedCount(1, 10.0), 0.5, 1e-9);
  EXPECT_NEAR(sketch.EstimateDecayedCount(1, 20.0), 0.25, 1e-9);
}

TEST(DecayedSpaceSavingTest, RecentRowsDominate) {
  DecayedSpaceSaving sketch(4, /*half_life=*/5.0, 3);
  // Item 1: 100 old rows; item 2: 10 recent rows.
  for (int i = 0; i < 100; ++i) sketch.Update(1, 0.0);
  for (int i = 0; i < 10; ++i) sketch.Update(2, 100.0);
  double w1 = sketch.EstimateDecayedCount(1, 100.0);
  double w2 = sketch.EstimateDecayedCount(2, 100.0);
  EXPECT_LT(w1, 0.01);  // 100 * 2^-20
  EXPECT_NEAR(w2, 10.0, 1e-6);
}

TEST(DecayedSpaceSavingTest, TotalDecayedWeightPreserved) {
  DecayedSpaceSaving sketch(16, /*half_life=*/50.0, 4);
  Rng rng(161);
  // Compute the exact decayed total independently.
  double expected = 0;
  double t = 0;
  for (int i = 0; i < 5000; ++i) {
    t += rng.NextDouble();
    sketch.Update(rng.NextBounded(200), t);
  }
  double query_time = t;
  // Recompute with a fresh generator replaying the same sequence.
  Rng replay(161);
  double tt = 0;
  for (int i = 0; i < 5000; ++i) {
    tt += replay.NextDouble();
    replay.NextBounded(200);
    expected += std::exp2(-(query_time - tt) / 50.0);
  }
  EXPECT_NEAR(sketch.TotalDecayedWeight(query_time), expected,
              1e-6 * expected);
}

TEST(DecayedSpaceSavingTest, RenormalizationKeepsEstimates) {
  // Long horizon stresses the landmark-advance path (forward weights would
  // otherwise overflow): estimates must stay finite and correct.
  DecayedSpaceSaving sketch(8, /*half_life=*/1.0, 5);
  double t = 0;
  for (int i = 0; i < 5000; ++i) {
    t += 0.5;
    sketch.Update(7, t);
  }
  // Geometric series: sum_j 2^{-j/2} over the last rows ~ 1/(1-2^-0.5).
  double expected = 0;
  for (int i = 0; i < 5000; ++i) {
    expected += std::exp2(-(0.5 * i));
  }
  EXPECT_NEAR(sketch.EstimateDecayedCount(7, t), expected, 1e-6 * expected);
  EXPECT_TRUE(std::isfinite(sketch.TotalDecayedWeight(t)));
}

TEST(DecayedSpaceSavingTest, GapBeyondDoubleRangeClearsOldMass) {
  // 4000 time units at half-life 2 is 2000 half-lives: the landmark
  // rescale factor underflows double, so the old counters are cleared
  // instead of handed a zero scale factor.
  DecayedSpaceSaving sketch(8, /*half_life=*/2.0, 7);
  sketch.Update(1, 0.0);
  sketch.Update(2, 4000.0, 3.0);
  EXPECT_EQ(sketch.TotalDecayedWeight(4000.0), 3.0);
  EXPECT_EQ(sketch.EstimateDecayedCount(1, 4000.0), 0.0);
  EXPECT_EQ(sketch.EstimateDecayedCount(2, 4000.0), 3.0);
  EXPECT_EQ(sketch.DecayedSketch(1e6).TotalWeight(), 0.0);
}

TEST(DecayedSpaceSavingTest, MergeLinesUpLandmarks) {
  // Two sites with landmarks 0 and 30: the merge rescales the older
  // part once, and decayed totals add up as one sketch's would.
  DecayedSpaceSaving a(16, /*half_life=*/10.0, 8);
  DecayedSpaceSaving b(16, /*half_life=*/10.0, 9);
  for (int i = 0; i < 5; ++i) a.Update(1 + i, 0.0, 4.0);
  for (int i = 0; i < 5; ++i) b.Update(10 + i, 30.0, 2.0);
  DecayedSpaceSaving merged = MergeDecayed({a, b}, 16, 10);
  const double truth = 20.0 * std::exp2(-5.0) + 10.0 * std::exp2(-2.0);
  EXPECT_NEAR(merged.TotalDecayedWeight(50.0), truth, truth * 1e-12);
  EXPECT_NEAR(merged.EstimateDecayedCount(1, 50.0), 4.0 * std::exp2(-5.0),
              1e-12);
  // A part older than double's range contributes nothing.
  DecayedSpaceSaving c(16, /*half_life=*/10.0, 11);
  c.Update(20, 1e6);
  DecayedSpaceSaving far = MergeDecayed({a, c}, 16, 12);
  EXPECT_EQ(far.TotalDecayedWeight(1e6), 1.0);
}

TEST(DecayedSpaceSavingTest, DecayedEntriesSortedAndScaled) {
  DecayedSpaceSaving sketch(4, 10.0, 6);
  sketch.Update(1, 0.0);
  sketch.Update(1, 0.0);
  sketch.Update(2, 10.0);
  auto entries = sketch.DecayedEntries(10.0);
  ASSERT_EQ(entries.size(), 2u);
  // Item 1: 2 * 0.5 = 1.0; item 2: 1.0 -> tie; both weights 1.0.
  EXPECT_NEAR(entries[0].weight, 1.0, 1e-9);
  EXPECT_NEAR(entries[1].weight, 1.0, 1e-9);
}

}  // namespace
}  // namespace dsketch
