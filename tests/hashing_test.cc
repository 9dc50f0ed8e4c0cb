// Tests for hashing/: XXH64 reference vectors, mixer bijectivity and
// avalanche, and k-wise polynomial hashing.

#include <cstdint>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "hashing/hash.h"
#include "hashing/poly_hash.h"
#include "util/random.h"

namespace dsketch {
namespace {

TEST(Xxh64Test, EmptyStringGoldenValue) {
  // Reference vector from the xxHash specification.
  EXPECT_EQ(XXH64("", 0), 0xEF46DB3751D8E999ULL);
}

TEST(Xxh64Test, SpammishRepetitionGoldenValue) {
  // Reference vector used in the xxhash documentation.
  EXPECT_EQ(XXH64("Nobody inspects the spammish repetition", 0),
            0xFBCEA83C8A378BF1ULL);
}

TEST(Xxh64Test, SeedChangesOutput) {
  EXPECT_NE(XXH64("abc", 0), XXH64("abc", 1));
}

TEST(Xxh64Test, AllInputLengthsDiffer) {
  // Exercise every tail-handling branch (0..64 bytes).
  std::string s;
  std::set<uint64_t> seen;
  for (int len = 0; len <= 64; ++len) {
    seen.insert(XXH64(s, 7));
    s.push_back(static_cast<char>('a' + (len % 26)));
  }
  EXPECT_EQ(seen.size(), 65u);
}

TEST(Mix64Test, IsBijectiveOnSample) {
  // A bijection cannot collide; check a large pseudo-random sample.
  std::set<uint64_t> outputs;
  uint64_t x = 1;
  for (int i = 0; i < 100000; ++i) {
    outputs.insert(Mix64(x));
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
  }
  EXPECT_EQ(outputs.size(), 100000u);
}

TEST(Mix64Test, AvalancheFlipsAboutHalfTheBits) {
  Rng rng(31);
  double total_flips = 0;
  const int kTrials = 2000;
  for (int t = 0; t < kTrials; ++t) {
    uint64_t x = rng.NextU64();
    int bit = static_cast<int>(rng.NextBounded(64));
    uint64_t d = Mix64(x) ^ Mix64(x ^ (1ULL << bit));
    total_flips += __builtin_popcountll(d);
  }
  double mean_flips = total_flips / kTrials;
  EXPECT_NEAR(mean_flips, 32.0, 1.0);
}

TEST(HashU64Test, DifferentSeedsDecorrelate) {
  int equal = 0;
  for (uint64_t k = 0; k < 1000; ++k) {
    if ((HashU64(k, 1) & 0xFF) == (HashU64(k, 2) & 0xFF)) ++equal;
  }
  // Expect about 1000/256 ~ 4 collisions in the low byte.
  EXPECT_LT(equal, 20);
}

TEST(HashToUnitTest, InUnitInterval) {
  Rng rng(32);
  for (int i = 0; i < 10000; ++i) {
    double u = HashToUnit(rng.NextU64());
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Mod61Test, MatchesNaiveModulo) {
  Rng rng(33);
  for (int i = 0; i < 10000; ++i) {
    uint64_t x = rng.NextU64() >> 2;  // < 2^62
    EXPECT_EQ(Mod61(x), x % kMersenne61);
  }
}

TEST(MulMod61Test, MatchesWideMultiplication) {
  Rng rng(34);
  for (int i = 0; i < 10000; ++i) {
    uint64_t a = rng.NextBounded(kMersenne61);
    uint64_t b = rng.NextBounded(kMersenne61);
    __uint128_t wide = static_cast<__uint128_t>(a) * b;
    EXPECT_EQ(MulMod61(a, b), static_cast<uint64_t>(wide % kMersenne61));
  }
}

TEST(PolyHashTest, DeterministicGivenRngState) {
  Rng rng1(35), rng2(35);
  PolyHash h1(3, rng1), h2(3, rng2);
  for (uint64_t k = 0; k < 100; ++k) EXPECT_EQ(h1.Hash(k), h2.Hash(k));
}

TEST(PolyHashTest, HashRangeWithinBounds) {
  Rng rng(36);
  PolyHash h(2, rng);
  for (uint64_t k = 0; k < 10000; ++k) EXPECT_LT(h.HashRange(k, 37), 37u);
}

TEST(PolyHashTest, RangeIsApproximatelyUniform) {
  Rng rng(37);
  PolyHash h(2, rng);
  const uint64_t kRange = 16;
  const int kKeys = 160000;
  std::vector<int> counts(kRange, 0);
  for (int k = 0; k < kKeys; ++k) ++counts[h.HashRange(k, kRange)];
  double expected = static_cast<double>(kKeys) / kRange;
  double chi2 = 0;
  for (int c : counts) chi2 += (c - expected) * (c - expected) / expected;
  // 15 dof; 99.99% quantile ~ 44.3.
  EXPECT_LT(chi2, 50.0);
}

TEST(PolyHashTest, SignHashIsBalanced) {
  Rng rng(38);
  PolyHash h(4, rng);
  int sum = 0;
  const int kKeys = 100000;
  for (int k = 0; k < kKeys; ++k) sum += h.HashSign(k);
  // Mean 0, sd sqrt(n) ~ 316; allow 5 sigma.
  EXPECT_LT(std::abs(sum), 1600);
}

TEST(PolyHashTest, PairwiseIndependenceOfSigns) {
  // For 4-wise hashing, sign products over distinct keys are unbiased.
  Rng rng(39);
  PolyHash h(4, rng);
  int64_t sum = 0;
  const int kPairs = 100000;
  for (int k = 0; k < kPairs; ++k) {
    sum += h.HashSign(2 * k) * h.HashSign(2 * k + 1);
  }
  EXPECT_LT(std::abs(sum), 1600);
}

}  // namespace
}  // namespace dsketch
