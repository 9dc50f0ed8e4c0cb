// Tests for util/: random number generation, alias tables, Fenwick trees,
// and the open-addressing flat map.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <set>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "util/alias.h"
#include "util/fenwick.h"
#include "util/flat_map.h"
#include "util/random.h"

namespace dsketch {
namespace {

TEST(SplitMix64Test, KnownSequenceIsDeterministic) {
  uint64_t s1 = 42, s2 = 42;
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(SplitMix64Next(s1), SplitMix64Next(s2));
  }
  EXPECT_EQ(s1, s2);
}

TEST(SplitMix64Test, DistinctSeedsDiverge) {
  uint64_t s1 = 1, s2 = 2;
  EXPECT_NE(SplitMix64Next(s1), SplitMix64Next(s2));
}

TEST(Xoshiro256Test, ReproducibleAcrossInstances) {
  Xoshiro256 a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(Xoshiro256Test, JumpProducesDisjointStream) {
  Xoshiro256 a(7), b(7);
  b.Jump();
  std::set<uint64_t> first;
  for (int i = 0; i < 1000; ++i) first.insert(a.Next());
  int collisions = 0;
  for (int i = 0; i < 1000; ++i) {
    if (first.count(b.Next())) ++collisions;
  }
  EXPECT_EQ(collisions, 0);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 10000; ++i) {
    double u = rng.NextDouble();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, NextDoublePositiveNeverZero) {
  Rng rng(10);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_GT(rng.NextDoublePositive(), 0.0);
    EXPECT_LE(rng.NextDoublePositive(), 1.0);
  }
}

TEST(RngTest, NextBoundedRespectsBound) {
  Rng rng(11);
  for (uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL, 1ULL << 40}) {
    for (int i = 0; i < 1000; ++i) {
      EXPECT_LT(rng.NextBounded(bound), bound);
    }
  }
}

TEST(RngTest, NextBoundedIsApproximatelyUniform) {
  Rng rng(12);
  const uint64_t kBound = 10;
  const int kDraws = 100000;
  std::vector<int> counts(kBound, 0);
  for (int i = 0; i < kDraws; ++i) ++counts[rng.NextBounded(kBound)];
  // Chi-square with 9 dof; 99.99% quantile ~ 33.7. Use a loose bound.
  double expected = static_cast<double>(kDraws) / kBound;
  double chi2 = 0;
  for (int c : counts) {
    chi2 += (c - expected) * (c - expected) / expected;
  }
  EXPECT_LT(chi2, 40.0);
}

TEST(RngTest, BernoulliMeanMatches) {
  Rng rng(13);
  const int kDraws = 200000;
  int hits = 0;
  for (int i = 0; i < kDraws; ++i) hits += rng.NextBernoulli(0.3) ? 1 : 0;
  double mean = static_cast<double>(hits) / kDraws;
  // 5 sigma of sqrt(0.3*0.7/n) ~ 0.005
  EXPECT_NEAR(mean, 0.3, 0.006);
}

TEST(RngTest, Geometric0MeanMatches) {
  Rng rng(14);
  const double p = 0.2;
  const int kDraws = 200000;
  double sum = 0;
  for (int i = 0; i < kDraws; ++i) sum += static_cast<double>(rng.NextGeometric0(p));
  double mean = sum / kDraws;
  // mean (1-p)/p = 4, sd of estimate ~ sqrt((1-p)/p^2 / n) ~ 0.01
  EXPECT_NEAR(mean, 4.0, 0.08);
}

TEST(RngTest, Geometric0WithPOneIsZero) {
  Rng rng(15);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.NextGeometric0(1.0), 0u);
}

TEST(RngTest, ExponentialMeanMatches) {
  Rng rng(16);
  const int kDraws = 200000;
  double sum = 0;
  for (int i = 0; i < kDraws; ++i) sum += rng.NextExponential(2.0);
  EXPECT_NEAR(sum / kDraws, 0.5, 0.01);
}

TEST(RngTest, GaussianMomentsMatch) {
  Rng rng(17);
  const int kDraws = 200000;
  double sum = 0, sum2 = 0;
  for (int i = 0; i < kDraws; ++i) {
    double g = rng.NextGaussian();
    sum += g;
    sum2 += g * g;
  }
  EXPECT_NEAR(sum / kDraws, 0.0, 0.02);
  EXPECT_NEAR(sum2 / kDraws, 1.0, 0.03);
}

TEST(RngTest, ShufflePreservesMultiset) {
  Rng rng(18);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  std::vector<int> orig = v;
  rng.Shuffle(v.data(), v.size());
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(RngTest, ShuffleIsUniformOnPairs) {
  // For a 2-element vector the swap must happen with probability 1/2.
  Rng rng(19);
  int swapped = 0;
  const int kTrials = 100000;
  for (int i = 0; i < kTrials; ++i) {
    std::vector<int> v{0, 1};
    rng.Shuffle(v.data(), v.size());
    if (v[0] == 1) ++swapped;
  }
  EXPECT_NEAR(static_cast<double>(swapped) / kTrials, 0.5, 0.01);
}

TEST(AliasTableTest, ProbabilitiesAreNormalized) {
  AliasTable table({1.0, 2.0, 3.0, 4.0});
  double sum = 0;
  for (size_t i = 0; i < table.size(); ++i) sum += table.Probability(i);
  EXPECT_NEAR(sum, 1.0, 1e-12);
  EXPECT_NEAR(table.Probability(3), 0.4, 1e-12);
}

TEST(AliasTableTest, SampleFrequenciesMatchWeights) {
  AliasTable table({5.0, 1.0, 3.0, 1.0});
  Rng rng(20);
  const int kDraws = 200000;
  std::vector<int> counts(4, 0);
  for (int i = 0; i < kDraws; ++i) ++counts[table.Sample(rng)];
  EXPECT_NEAR(counts[0] / static_cast<double>(kDraws), 0.5, 0.01);
  EXPECT_NEAR(counts[1] / static_cast<double>(kDraws), 0.1, 0.01);
  EXPECT_NEAR(counts[2] / static_cast<double>(kDraws), 0.3, 0.01);
  EXPECT_NEAR(counts[3] / static_cast<double>(kDraws), 0.1, 0.01);
}

TEST(AliasTableTest, ZeroWeightCategoryNeverDrawn) {
  AliasTable table({1.0, 0.0, 1.0});
  Rng rng(21);
  for (int i = 0; i < 10000; ++i) EXPECT_NE(table.Sample(rng), 1u);
}

TEST(AliasTableTest, SingleCategory) {
  AliasTable table({3.0});
  Rng rng(22);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(table.Sample(rng), 0u);
}

TEST(FenwickTreeTest, PrefixSumsMatchBruteForce) {
  std::vector<int64_t> w{3, 0, 5, 1, 2, 0, 7};
  FenwickTree tree(w);
  int64_t acc = 0;
  for (size_t i = 0; i <= w.size(); ++i) {
    EXPECT_EQ(tree.PrefixSum(i), acc);
    if (i < w.size()) acc += w[i];
  }
  EXPECT_EQ(tree.Total(), acc);
}

TEST(FenwickTreeTest, AddUpdatesSums) {
  FenwickTree tree(5);
  tree.Add(0, 2);
  tree.Add(3, 4);
  tree.Add(3, -1);
  EXPECT_EQ(tree.Get(0), 2);
  EXPECT_EQ(tree.Get(3), 3);
  EXPECT_EQ(tree.Total(), 5);
  EXPECT_EQ(tree.PrefixSum(4), 5);
}

TEST(FenwickTreeTest, FindByPrefixInvertsPrefixSum) {
  std::vector<int64_t> w{2, 0, 3, 1};
  FenwickTree tree(w);
  // Targets 0,1 -> item 0; 2,3,4 -> item 2; 5 -> item 3.
  EXPECT_EQ(tree.FindByPrefix(0), 0u);
  EXPECT_EQ(tree.FindByPrefix(1), 0u);
  EXPECT_EQ(tree.FindByPrefix(2), 2u);
  EXPECT_EQ(tree.FindByPrefix(4), 2u);
  EXPECT_EQ(tree.FindByPrefix(5), 3u);
}

TEST(WeightedUrnTest, DrawsExactMultiset) {
  std::vector<int64_t> counts{3, 1, 0, 2};
  WeightedUrn urn(counts);
  Rng rng(23);
  std::vector<int64_t> drawn(4, 0);
  while (!urn.Empty()) ++drawn[urn.Draw(rng)];
  EXPECT_EQ(drawn[0], 3);
  EXPECT_EQ(drawn[1], 1);
  EXPECT_EQ(drawn[2], 0);
  EXPECT_EQ(drawn[3], 2);
}

TEST(WeightedUrnTest, FirstDrawProportionalToWeight) {
  const int kTrials = 50000;
  int first_is_zero = 0;
  for (int t = 0; t < kTrials; ++t) {
    WeightedUrn urn({8, 2});
    Rng rng(1000 + t);
    if (urn.Draw(rng) == 0) ++first_is_zero;
  }
  EXPECT_NEAR(first_is_zero / static_cast<double>(kTrials), 0.8, 0.01);
}

TEST(FlatMapTest, InsertFindErase) {
  FlatMap<uint32_t> map;
  EXPECT_TRUE(map.empty());
  map.InsertOrAssign(5, 50);
  map.InsertOrAssign(6, 60);
  ASSERT_NE(map.Find(5), nullptr);
  EXPECT_EQ(*map.Find(5), 50u);
  EXPECT_EQ(map.Find(7), nullptr);
  EXPECT_TRUE(map.Erase(5));
  EXPECT_FALSE(map.Erase(5));
  EXPECT_EQ(map.Find(5), nullptr);
  EXPECT_EQ(map.size(), 1u);
}

TEST(FlatMapTest, OverwriteKeepsSingleEntry) {
  FlatMap<uint32_t> map;
  map.InsertOrAssign(9, 1);
  map.InsertOrAssign(9, 2);
  EXPECT_EQ(map.size(), 1u);
  EXPECT_EQ(*map.Find(9), 2u);
}

TEST(FlatMapTest, GrowsBeyondInitialCapacity) {
  FlatMap<uint64_t> map(4);
  for (uint64_t k = 0; k < 1000; ++k) map.InsertOrAssign(k * 7 + 1, k);
  EXPECT_EQ(map.size(), 1000u);
  for (uint64_t k = 0; k < 1000; ++k) {
    ASSERT_NE(map.Find(k * 7 + 1), nullptr);
    EXPECT_EQ(*map.Find(k * 7 + 1), k);
  }
}

TEST(FlatMapTest, MatchesUnorderedMapUnderChurn) {
  FlatMap<uint64_t> map;
  std::unordered_map<uint64_t, uint64_t> ref;
  Rng rng(24);
  for (int op = 0; op < 200000; ++op) {
    uint64_t key = rng.NextBounded(500) + 1;
    switch (rng.NextBounded(3)) {
      case 0: {
        uint64_t v = rng.NextU64();
        map.InsertOrAssign(key, v);
        ref[key] = v;
        break;
      }
      case 1: {
        bool erased = map.Erase(key);
        EXPECT_EQ(erased, ref.erase(key) > 0);
        break;
      }
      default: {
        const uint64_t* found = map.Find(key);
        auto it = ref.find(key);
        if (it == ref.end()) {
          EXPECT_EQ(found, nullptr);
        } else {
          ASSERT_NE(found, nullptr);
          EXPECT_EQ(*found, it->second);
        }
      }
    }
    EXPECT_EQ(map.size(), ref.size());
  }
}

TEST(FlatMapTest, ClearRemovesEverything) {
  FlatMap<uint32_t> map;
  for (uint64_t k = 1; k <= 50; ++k) map.InsertOrAssign(k, 1);
  map.Clear();
  EXPECT_TRUE(map.empty());
  for (uint64_t k = 1; k <= 50; ++k) EXPECT_EQ(map.Find(k), nullptr);
}

TEST(FlatMapTest, HashedOverloadsMatchPlainOnes) {
  // The batched ingestion path pre-mixes keys once and reuses the hash
  // across Find/Insert/Erase; the *Hashed overloads must behave exactly
  // like the plain calls (the hash survives rehashes by construction).
  FlatMap<uint32_t> map(4);  // small: forces growth + rehash
  for (uint64_t k = 1; k <= 200; ++k) {
    map.InsertOrAssignHashed(k, FlatMap<uint32_t>::MixedHash(k),
                             static_cast<uint32_t>(k * 3));
  }
  for (uint64_t k = 1; k <= 200; ++k) {
    const uint64_t h = FlatMap<uint32_t>::MixedHash(k);
    map.Prefetch(h);  // advisory only; must be safe anywhere
    uint32_t* v = map.FindHashed(k, h);
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(*v, k * 3);
    EXPECT_EQ(map.Find(k), v);
  }
  for (uint64_t k = 1; k <= 200; k += 2) {
    EXPECT_TRUE(map.EraseHashed(k, FlatMap<uint32_t>::MixedHash(k)));
  }
  EXPECT_EQ(map.size(), 100u);
  for (uint64_t k = 1; k <= 200; ++k) {
    EXPECT_EQ(map.Find(k) != nullptr, k % 2 == 0) << k;
  }
}

}  // namespace
}  // namespace dsketch
