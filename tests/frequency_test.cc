// Tests for frequency/: the exact Misra-Gries <-> Space Saving
// isomorphism (Agarwal et al.), Lossy Counting's schedule guarantee,
// CountMin bounds, AMS F2 estimation, and the frequent-items query API.

#include <cmath>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "core/deterministic_space_saving.h"
#include "core/frequent_items.h"
#include "core/unbiased_space_saving.h"
#include "frequency/ams.h"
#include "frequency/count_min.h"
#include "frequency/lossy_counting.h"
#include "frequency/misra_gries.h"
#include "stream/distributions.h"
#include "stream/generators.h"
#include "util/random.h"

namespace dsketch {
namespace {

TEST(MisraGriesTest, ExactWhileCountersFree) {
  MisraGries mg(4);
  for (int i = 0; i < 7; ++i) mg.Update(1);
  for (int i = 0; i < 3; ++i) mg.Update(2);
  EXPECT_EQ(mg.EstimateCount(1), 7);
  EXPECT_EQ(mg.EstimateCount(2), 3);
  EXPECT_EQ(mg.decrements(), 0);
}

TEST(MisraGriesTest, UnderestimatesByAtMostDecrements) {
  MisraGries mg(10);
  Rng rng(120);
  std::vector<int64_t> truth(100, 0);
  for (int i = 0; i < 20000; ++i) {
    uint64_t item = rng.NextBounded(100);
    ++truth[item];
    mg.Update(item);
  }
  for (size_t i = 0; i < truth.size(); ++i) {
    EXPECT_LE(mg.EstimateCount(i), truth[i]);
    EXPECT_GE(mg.UpperBound(i), truth[i]);
  }
  // Classic bound: decrements <= n/(m+1).
  EXPECT_LE(mg.decrements(), 20000 / 11 + 1);
}

TEST(MisraGriesTest, IsomorphicToSpaceSavingWithOneMoreBin) {
  // Agarwal et al.: MG with m-1 counters == Space Saving with m bins via
  // est_MG(x) = (est_SS(x) - min)+, independent of tie-breaking. Verify
  // exactly on random streams, at several checkpoints.
  const size_t kM = 8;
  for (uint64_t seed = 0; seed < 20; ++seed) {
    MisraGries mg(kM - 1);
    DeterministicSpaceSaving ss(kM, seed, TieBreak::kRandom);
    Rng rng(130 + seed);
    for (int i = 0; i < 4000; ++i) {
      uint64_t item = rng.NextBounded(60);
      mg.Update(item);
      ss.Update(item);
      if (i % 997 == 0 || i == 3999) {
        EXPECT_EQ(mg.decrements(), ss.MinCount());
        for (uint64_t x = 0; x < 60; ++x) {
          int64_t proj = ss.EstimateCount(x) - ss.MinCount();
          if (proj < 0) proj = 0;
          ASSERT_EQ(mg.EstimateCount(x), proj)
              << "seed " << seed << " row " << i << " item " << x;
        }
      }
    }
  }
}

TEST(MisraGriesTest, MergePreservesDeterministicGuarantee) {
  // After merging, est <= truth and truth - est <= combined n / (m+1)
  // (Agarwal et al.). Skewed counts make the bound binding for the head.
  const size_t kM = 12;
  MisraGries a(kM), b(kM);
  std::vector<int64_t> counts = ZipfCounts(80, 1.5, 4000);
  Rng rng(121);
  auto rows = PermutedStream(counts, rng);
  std::vector<int64_t> truth(counts.begin(), counts.end());
  int64_t n = static_cast<int64_t>(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    (i % 2 == 0 ? a : b).Update(rows[i]);
  }
  a.MergeFrom(b);
  int64_t slack = n / static_cast<int64_t>(kM + 1) + 2;
  for (size_t i = 0; i < truth.size(); ++i) {
    EXPECT_LE(a.EstimateCount(i), truth[i]);
    EXPECT_GE(a.EstimateCount(i), truth[i] - slack) << "item " << i;
  }
  EXPECT_LE(a.size(), kM);
  // The heaviest item must survive the merge with a binding estimate.
  EXPECT_GT(a.EstimateCount(79), 0);
}

TEST(LossyCountingTest, DecrementsOnFixedSchedule) {
  LossyCounting lc(100);
  for (int i = 0; i < 250; ++i) lc.Update(static_cast<uint64_t>(i));
  EXPECT_EQ(lc.decrements(), 2);  // after rows 100 and 200
}

TEST(LossyCountingTest, UnderestimatesByAtMostNOverM) {
  LossyCounting lc(50);
  Rng rng(122);
  std::vector<int64_t> truth(60, 0);
  for (int i = 0; i < 10000; ++i) {
    uint64_t item = rng.NextBounded(60);
    ++truth[item];
    lc.Update(item);
  }
  int64_t bound = 10000 / 50;
  for (size_t i = 0; i < truth.size(); ++i) {
    EXPECT_LE(lc.EstimateCount(i), truth[i]);
    EXPECT_GE(lc.EstimateCount(i), truth[i] - bound);
  }
}

TEST(LossyCountingTest, FrequentItemsSurvive) {
  // Items with frequency > n/period must be present.
  LossyCounting lc(20);
  for (int i = 0; i < 3000; ++i) {
    lc.Update(i % 3);                         // three heavy items
    lc.Update(1000 + static_cast<uint64_t>(i));  // noise
  }
  EXPECT_TRUE(lc.Contains(0));
  EXPECT_TRUE(lc.Contains(1));
  EXPECT_TRUE(lc.Contains(2));
}

TEST(CountMinTest, NeverUnderestimates) {
  CountMin cm(64, 4, 1);
  Rng rng(126);
  std::unordered_map<uint64_t, int64_t> truth;
  for (int i = 0; i < 20000; ++i) {
    uint64_t item = rng.NextBounded(3000);
    ++truth[item];
    cm.Update(item);
  }
  for (const auto& [item, count] : truth) {
    EXPECT_GE(cm.EstimateCount(item), count);
  }
}

TEST(CountMinTest, ErrorWithinTwoNOverWMostly) {
  CountMin cm(256, 5, 2);
  Rng rng(127);
  std::unordered_map<uint64_t, int64_t> truth;
  const int kRows = 50000;
  for (int i = 0; i < kRows; ++i) {
    uint64_t item = rng.NextBounded(5000);
    ++truth[item];
    cm.Update(item);
  }
  int violations = 0;
  int64_t bound = 2 * kRows / 256;
  for (const auto& [item, count] : truth) {
    if (cm.EstimateCount(item) - count > bound) ++violations;
  }
  // With depth 5, P(violation) <= 2^-5 per item; expect a small fraction.
  EXPECT_LT(violations, static_cast<int>(truth.size() / 16));
}

TEST(CountMinTest, ConservativeUpdateIsTighter) {
  CountMin plain(64, 4, 3, /*conservative=*/false);
  CountMin cons(64, 4, 3, /*conservative=*/true);
  Rng rng(128);
  std::unordered_map<uint64_t, int64_t> truth;
  for (int i = 0; i < 30000; ++i) {
    uint64_t item = rng.NextBounded(2000);
    ++truth[item];
    plain.Update(item);
    cons.Update(item);
  }
  int64_t plain_err = 0, cons_err = 0;
  for (const auto& [item, count] : truth) {
    plain_err += plain.EstimateCount(item) - count;
    cons_err += cons.EstimateCount(item) - count;
    EXPECT_GE(cons.EstimateCount(item), count);
  }
  EXPECT_LT(cons_err, plain_err);
}

TEST(CountMinTest, WeightedUpdates) {
  CountMin cm(128, 4, 4);
  cm.Update(7, 100);
  cm.Update(7, 23);
  EXPECT_GE(cm.EstimateCount(7), 123);
  EXPECT_EQ(cm.TotalCount(), 123);
}

TEST(AmsTest, F2WithinTolerance) {
  AmsSketch ams(5, 200, 5);
  std::vector<int64_t> counts = ZipfCounts(100, 1.0, 200);
  double f2 = 0;
  for (size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] > 0) ams.Update(i, counts[i]);
    f2 += static_cast<double>(counts[i]) * static_cast<double>(counts[i]);
  }
  // sd of a group mean ~ sqrt(2/200) * F2 ~ 0.1 F2; median of 5 tighter.
  EXPECT_NEAR(ams.EstimateF2(), f2, 0.35 * f2);
}

TEST(AmsTest, LinearityUnderDeletion) {
  AmsSketch ams(3, 50, 6);
  ams.Update(1, 10);
  ams.Update(2, 4);
  ams.Update(1, -10);
  ams.Update(2, -4);
  EXPECT_EQ(ams.EstimateF2(), 0.0);
}

TEST(AmsTest, JoinSizeEstimate) {
  // Two streams sharing hash seed; join size = sum n_i * m_i.
  AmsSketch a(5, 300, 7), b(5, 300, 7);
  std::vector<int64_t> na{100, 50, 10, 5, 0};
  std::vector<int64_t> nb{80, 0, 20, 5, 40};
  double join = 0;
  for (size_t i = 0; i < na.size(); ++i) {
    if (na[i] > 0) a.Update(i, na[i]);
    if (nb[i] > 0) b.Update(i, nb[i]);
    join += static_cast<double>(na[i]) * static_cast<double>(nb[i]);
  }
  EXPECT_NEAR(a.EstimateJoinSize(b), join, 0.35 * join + 100);
}

TEST(FrequentItemsTest, DeterministicGuaranteedFlags) {
  std::vector<int64_t> counts{1000, 800, 2, 2, 2, 2, 2, 2, 2, 2};
  Rng rng(129);
  auto rows = PermutedStream(counts, rng);
  DeterministicSpaceSaving sketch(6, 8);
  for (uint64_t item : rows) sketch.Update(item);

  auto frequent = FrequentItems(sketch, 0.2);
  ASSERT_GE(frequent.size(), 2u);
  EXPECT_EQ(frequent[0].item, 0u);
  EXPECT_EQ(frequent[1].item, 1u);
  EXPECT_TRUE(frequent[0].guaranteed);
  EXPECT_TRUE(frequent[1].guaranteed);
  for (const auto& f : frequent) {
    EXPECT_LE(f.lower_bound, f.estimate);
  }
}

TEST(FrequentItemsTest, TopKOrdering) {
  UnbiasedSpaceSaving sketch(16, 9);
  std::vector<int64_t> counts{500, 400, 300, 200, 100, 1, 1, 1, 1, 1};
  Rng rng(131);
  auto rows = PermutedStream(counts, rng);
  for (uint64_t item : rows) sketch.Update(item);

  auto top = TopK(sketch, 3);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0].item, 0u);
  EXPECT_EQ(top[1].item, 1u);
  EXPECT_EQ(top[2].item, 2u);
  EXPECT_GE(top[0].count, top[1].count);
}

TEST(FrequentItemsTest, PhiZeroReturnsAllTracked) {
  DeterministicSpaceSaving sketch(4, 10);
  for (int i = 0; i < 100; ++i) sketch.Update(i % 3);
  auto frequent = FrequentItems(sketch, 0.0);
  EXPECT_EQ(frequent.size(), 3u);
}

}  // namespace
}  // namespace dsketch
