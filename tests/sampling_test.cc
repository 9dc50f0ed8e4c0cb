// Tests for sampling/: thresholded PPS probabilities, priority sampling,
// and bottom-k.

#include <cmath>
#include <cstdint>
#include <numeric>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "sampling/bottom_k.h"
#include "sampling/pps.h"
#include "sampling/priority_sampling.h"
#include "stats/welford.h"
#include "util/random.h"

namespace dsketch {
namespace {

TEST(PpsTest, PaperExampleCapsHeavyItem) {
  // Paper §5.1: values 1, 1, 10 with k = 2 force pi = (1/2, 1/2, 1).
  auto pi = ThresholdedPpsProbabilities({1.0, 1.0, 10.0}, 2);
  EXPECT_NEAR(pi[0], 0.5, 1e-12);
  EXPECT_NEAR(pi[1], 0.5, 1e-12);
  EXPECT_NEAR(pi[2], 1.0, 1e-12);
}

TEST(PpsTest, SumsToSampleSize) {
  Rng rng(70);
  std::vector<double> w(50);
  for (double& x : w) x = std::exp(3.0 * rng.NextGaussian());
  for (size_t k : {1u, 5u, 20u, 49u}) {
    auto pi = ThresholdedPpsProbabilities(w, k);
    double sum = std::accumulate(pi.begin(), pi.end(), 0.0);
    EXPECT_NEAR(sum, static_cast<double>(k), 1e-9) << "k=" << k;
    for (double p : pi) {
      EXPECT_GE(p, 0.0);
      EXPECT_LE(p, 1.0 + 1e-12);
    }
  }
}

TEST(PpsTest, AllTakenWhenFewerItemsThanK) {
  auto pi = ThresholdedPpsProbabilities({2.0, 0.0, 5.0}, 4);
  EXPECT_EQ(pi[0], 1.0);
  EXPECT_EQ(pi[1], 0.0);  // zero weight never sampled
  EXPECT_EQ(pi[2], 1.0);
}

TEST(PpsTest, ProportionalWhenNoCapBinds) {
  auto pi = ThresholdedPpsProbabilities({1.0, 2.0, 3.0, 4.0}, 2);
  // alpha = 2/10; no cap binds since 0.2*4 = 0.8 < 1.
  EXPECT_NEAR(pi[0], 0.2, 1e-12);
  EXPECT_NEAR(pi[3], 0.8, 1e-12);
}

TEST(PpsTest, ItemVarianceFormula) {
  EXPECT_NEAR(PpsItemVariance(10.0, 0.5), 100.0, 1e-12);
  EXPECT_EQ(PpsItemVariance(10.0, 1.0), 0.0);
  EXPECT_EQ(PpsItemVariance(10.0, 0.0), 0.0);
}

TEST(PrioritySamplerTest, ExactWhenUnderCapacity) {
  PrioritySampler sampler(10, 74);
  sampler.Add(1, 5.0);
  sampler.Add(2, 7.0);
  EXPECT_EQ(sampler.Threshold(), 0.0);
  auto sample = sampler.Sample();
  ASSERT_EQ(sample.size(), 2u);
  double total = sampler.EstimateTotal();
  EXPECT_NEAR(total, 12.0, 1e-12);
}

TEST(PrioritySamplerTest, SampleSizeIsK) {
  PrioritySampler sampler(5, 75);
  for (uint64_t i = 0; i < 100; ++i) sampler.Add(i, 1.0 + (i % 7));
  EXPECT_EQ(sampler.Sample().size(), 5u);
  EXPECT_GT(sampler.Threshold(), 0.0);
}

TEST(PrioritySamplerTest, TotalEstimateIsUnbiased) {
  std::vector<double> weights{1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144};
  double truth = std::accumulate(weights.begin(), weights.end(), 0.0);
  Welford est;
  for (int t = 0; t < 30000; ++t) {
    PrioritySampler sampler(4, 2000 + t);
    for (size_t i = 0; i < weights.size(); ++i) {
      sampler.Add(i, weights[i]);
    }
    est.Add(sampler.EstimateTotal());
  }
  EXPECT_NEAR(est.mean(), truth, 5 * est.stderr_mean());
}

TEST(PrioritySamplerTest, SubsetEstimateIsUnbiased) {
  std::vector<double> weights{10, 1, 1, 1, 1, 1, 1, 1, 40, 1};
  double truth = weights[0] + weights[2] + weights[8];  // subset {0,2,8}
  std::unordered_set<uint64_t> subset{0, 2, 8};
  Welford est;
  for (int t = 0; t < 30000; ++t) {
    PrioritySampler sampler(4, 3000 + t);
    for (size_t i = 0; i < weights.size(); ++i) sampler.Add(i, weights[i]);
    est.Add(sampler.EstimateSubset(
        [&subset](uint64_t item) { return subset.count(item) > 0; }));
  }
  EXPECT_NEAR(est.mean(), truth, 5 * est.stderr_mean());
}

TEST(PrioritySamplerTest, HeavyItemAlwaysKeptWithAdjustedWeight) {
  // A dominant weight has priority >> others and estimate max(w, tau) = w.
  for (int t = 0; t < 200; ++t) {
    PrioritySampler sampler(3, 4000 + t);
    sampler.Add(99, 1e9);
    for (uint64_t i = 0; i < 50; ++i) sampler.Add(i, 1.0);
    auto sample = sampler.Sample();
    bool found = false;
    for (const auto& e : sample) {
      if (e.item == 99) {
        found = true;
        EXPECT_NEAR(e.weight, 1e9, 1e9 * 1e-3);
      }
    }
    EXPECT_TRUE(found);
  }
}

TEST(BottomKTest, ExactWhenFewDistinct) {
  BottomKSampler sampler(10, 76);
  for (int rep = 0; rep < 3; ++rep) {
    for (uint64_t i = 0; i < 5; ++i) sampler.Update(i);
  }
  EXPECT_EQ(sampler.Threshold(), 1.0);
  auto sample = sampler.Sample();
  ASSERT_EQ(sample.size(), 5u);
  for (const auto& e : sample) EXPECT_NEAR(e.weight, 3.0, 1e-12);
}

TEST(BottomKTest, TracksExactCountsOfSampledItems) {
  // Whoever is in the sample must carry its exact count (tracked from its
  // first row; ranks are fixed by hash).
  std::vector<int64_t> counts{9, 5, 14, 3, 8, 1, 1, 12, 2, 6};
  BottomKSampler sampler(4, 77);
  for (size_t i = 0; i < counts.size(); ++i) {
    for (int64_t j = 0; j < counts[i]; ++j) {
      sampler.Update(i);
    }
  }
  double tau = sampler.Threshold();
  ASSERT_GT(tau, 0.0);
  for (const auto& e : sampler.Sample()) {
    double exact = static_cast<double>(counts[e.item]);
    EXPECT_NEAR(e.weight * tau, exact, 1e-9);
  }
}

TEST(BottomKTest, SubsetEstimateIsUnbiasedOverSeeds) {
  std::vector<int64_t> counts{40, 5, 14, 3, 8, 1, 1, 12, 2, 6, 9, 9, 3, 2, 7};
  double truth = 0;
  for (size_t i = 0; i < counts.size(); i += 2) {
    truth += static_cast<double>(counts[i]);  // subset = even ids
  }
  Welford est;
  for (int t = 0; t < 20000; ++t) {
    BottomKSampler sampler(5, 5000 + t);
    for (size_t i = 0; i < counts.size(); ++i) {
      for (int64_t j = 0; j < counts[i]; ++j) sampler.Update(i);
    }
    est.Add(sampler.EstimateSubset(
        [](uint64_t item) { return item % 2 == 0; }));
  }
  EXPECT_NEAR(est.mean(), truth, 5 * est.stderr_mean());
}

}  // namespace
}  // namespace dsketch
