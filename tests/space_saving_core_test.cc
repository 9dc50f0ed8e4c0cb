// Tests for core/space_saving_core: structural invariants of the shared
// Space Saving engine — exact totals, min-count bounds, count-sorted
// slots, LoadEntries round trips, and both tie-breaking modes.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "core/space_saving_core.h"
#include "stream/distributions.h"
#include "stream/generators.h"
#include "util/random.h"
#include "util/span.h"

namespace dsketch {
namespace {

TEST(SpaceSavingCoreTest, ExactWhileDistinctItemsFit) {
  for (LabelPolicy policy :
       {LabelPolicy::kDeterministic, LabelPolicy::kUnbiased}) {
    SpaceSavingCore core(8, policy, 1);
    for (int rep = 0; rep < 5; ++rep) {
      for (uint64_t i = 0; i < 8; ++i) {
        for (uint64_t j = 0; j <= i; ++j) core.Update(i);
      }
    }
    for (uint64_t i = 0; i < 8; ++i) {
      EXPECT_EQ(core.EstimateCount(i), static_cast<int64_t>(5 * (i + 1)));
    }
    EXPECT_EQ(core.size(), 8u);
  }
}

TEST(SpaceSavingCoreTest, TotalCountPreservedExactly) {
  for (LabelPolicy policy :
       {LabelPolicy::kDeterministic, LabelPolicy::kUnbiased}) {
    SpaceSavingCore core(16, policy, 2);
    Rng rng(90);
    int64_t rows = 0;
    for (int i = 0; i < 20000; ++i) {
      core.Update(rng.NextBounded(300));
      ++rows;
      if (i % 1000 == 0) {
        int64_t bin_sum = 0;
        for (const SketchEntry& e : core.Entries()) bin_sum += e.count;
        EXPECT_EQ(bin_sum, rows);
        EXPECT_EQ(core.TotalCount(), rows);
      }
    }
  }
}

TEST(SpaceSavingCoreTest, MinCountBoundedByMean) {
  SpaceSavingCore core(10, LabelPolicy::kUnbiased, 3);
  Rng rng(91);
  for (int i = 1; i <= 50000; ++i) {
    core.Update(rng.NextBounded(100));
    EXPECT_LE(core.MinCount() * 10, core.TotalCount());
  }
}

TEST(SpaceSavingCoreTest, EntriesSortedDescending) {
  SpaceSavingCore core(32, LabelPolicy::kDeterministic, 4);
  Rng rng(92);
  for (int i = 0; i < 5000; ++i) core.Update(rng.NextBounded(1000));
  auto entries = core.Entries();
  for (size_t i = 1; i < entries.size(); ++i) {
    EXPECT_GE(entries[i - 1].count, entries[i].count);
  }
}

TEST(SpaceSavingCoreTest, MinCountZeroUntilFull) {
  SpaceSavingCore core(5, LabelPolicy::kUnbiased, 5);
  for (uint64_t i = 0; i < 4; ++i) {
    core.Update(i);
    EXPECT_EQ(core.MinCount(), 0);
  }
  core.Update(4);
  EXPECT_EQ(core.MinCount(), 1);
}

TEST(SpaceSavingCoreTest, CapacityOneAlwaysHoldsTotal) {
  SpaceSavingCore core(1, LabelPolicy::kDeterministic, 6);
  for (uint64_t i = 0; i < 100; ++i) core.Update(i % 7);
  auto entries = core.Entries();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].count, 100);
}

TEST(SpaceSavingCoreTest, SameSeedIsReproducible) {
  SpaceSavingCore a(16, LabelPolicy::kUnbiased, 42);
  SpaceSavingCore b(16, LabelPolicy::kUnbiased, 42);
  Rng rng(93);
  for (int i = 0; i < 10000; ++i) {
    uint64_t item = rng.NextBounded(500);
    a.Update(item);
    b.Update(item);
  }
  EXPECT_EQ(a.Entries(), b.Entries());
}

TEST(SpaceSavingCoreTest, DeterministicOverestimatesByAtMostMin) {
  std::vector<int64_t> counts = ZipfCounts(200, 1.2, 500);
  Rng rng(94);
  auto rows = PermutedStream(counts, rng);
  SpaceSavingCore core(24, LabelPolicy::kDeterministic, 7);
  for (uint64_t item : rows) core.Update(item);
  for (size_t i = 0; i < counts.size(); ++i) {
    int64_t est = core.EstimateCount(i);
    if (est == 0) continue;  // untracked
    EXPECT_GE(est, counts[i]);
    EXPECT_LE(est, counts[i] + core.MinCount());
  }
}

TEST(SpaceSavingCoreTest, DeterministicErrorWithinTotalOverM) {
  std::vector<int64_t> counts = ZipfCounts(300, 1.0, 400);
  Rng rng(95);
  auto rows = PermutedStream(counts, rng);
  SpaceSavingCore core(20, LabelPolicy::kDeterministic, 8);
  for (uint64_t item : rows) core.Update(item);
  int64_t bound = core.TotalCount() / 20;
  for (size_t i = 0; i < counts.size(); ++i) {
    int64_t err = core.EstimateCount(i) - counts[i];
    EXPECT_LE(std::abs(err), bound) << "item " << i;
  }
}

TEST(SpaceSavingCoreTest, LoadEntriesRoundTrips) {
  SpaceSavingCore core(8, LabelPolicy::kUnbiased, 9);
  std::vector<SketchEntry> entries{{11, 5}, {22, 1}, {33, 9}, {44, 3}};
  core.LoadEntries(entries);
  EXPECT_EQ(core.size(), 4u);
  EXPECT_EQ(core.TotalCount(), 18);
  EXPECT_EQ(core.EstimateCount(11), 5);
  EXPECT_EQ(core.EstimateCount(33), 9);
  EXPECT_EQ(core.EstimateCount(99), 0);
  EXPECT_EQ(core.MinCount(), 0);  // 4 empty bins remain

  auto out = core.Entries();
  ASSERT_EQ(out.size(), 4u);
  EXPECT_EQ(out[0].item, 33u);
  EXPECT_EQ(out[0].count, 9);
}

TEST(SpaceSavingCoreTest, UpdatesContinueAfterLoadEntries) {
  SpaceSavingCore core(4, LabelPolicy::kDeterministic, 10);
  core.LoadEntries({{1, 10}, {2, 20}, {3, 30}, {4, 40}});
  core.Update(2);
  EXPECT_EQ(core.EstimateCount(2), 21);
  // New item replaces the minimum bin (deterministic policy).
  core.Update(5);
  EXPECT_EQ(core.EstimateCount(5), 11);
  EXPECT_EQ(core.EstimateCount(1), 0);
  EXPECT_EQ(core.TotalCount(), 102);
}

TEST(SpaceSavingCoreTest, FullLoadThenUpdateKeepsInvariant) {
  SpaceSavingCore core(3, LabelPolicy::kUnbiased, 11);
  core.LoadEntries({{7, 2}, {8, 2}, {9, 2}});
  for (int i = 0; i < 100; ++i) core.Update(100 + (i % 5));
  int64_t sum = 0;
  for (const SketchEntry& e : core.Entries()) sum += e.count;
  EXPECT_EQ(sum, 106);
}

TEST(SpaceSavingCoreTest, FirstSlotTieBreakIsDeterministic) {
  SpaceSavingCore a(8, LabelPolicy::kDeterministic, 1, TieBreak::kFirstSlot);
  SpaceSavingCore b(8, LabelPolicy::kDeterministic, 2, TieBreak::kFirstSlot);
  // Different seeds but deterministic policy + deterministic tie-break:
  // identical states.
  Rng rng(96);
  for (int i = 0; i < 20000; ++i) {
    uint64_t item = rng.NextBounded(400);
    a.Update(item);
    b.Update(item);
  }
  EXPECT_EQ(a.Entries(), b.Entries());
}

TEST(SpaceSavingCoreTest, EachMinBinReplacedOncePerDistinctWave) {
  // 64 count-1 bins absorbing 64 new distinct items: every update must
  // pick a *different* min bin (the picked bin leaves the minimum range),
  // so all second-wave items survive at count 2, regardless of tie-break.
  for (TieBreak tb : {TieBreak::kRandom, TieBreak::kFirstSlot}) {
    SpaceSavingCore core(64, LabelPolicy::kDeterministic, 12, tb);
    for (uint64_t i = 0; i < 64; ++i) core.Update(i);  // fill, all count 1
    for (uint64_t i = 64; i < 128; ++i) core.Update(i);
    for (const SketchEntry& e : core.Entries()) {
      EXPECT_GE(e.item, 64u);
      EXPECT_EQ(e.count, 2);
    }
  }
}

TEST(SpaceSavingCoreTest, RandomTieBreakVariesAcrossSeeds) {
  // Fill 64 bins, then add 16 distinct items: which first-wave labels are
  // displaced must depend on the seed under kRandom tie-breaking.
  auto survivors = [](uint64_t seed) {
    SpaceSavingCore core(64, LabelPolicy::kDeterministic, seed,
                         TieBreak::kRandom);
    for (uint64_t i = 0; i < 64; ++i) core.Update(i);
    for (uint64_t i = 64; i < 80; ++i) core.Update(i);
    std::vector<uint64_t> out;
    for (const SketchEntry& e : core.Entries()) {
      if (e.item < 64) out.push_back(e.item);
    }
    std::sort(out.begin(), out.end());
    return out;
  };
  EXPECT_NE(survivors(1), survivors(2));
}

TEST(SpaceSavingCoreTest, UnbiasedKeepsHeavyLabelAgainstNoise) {
  // A heavy item reaching a large count is almost never displaced: the
  // replacement probability of its bin is ~1/count.
  SpaceSavingCore core(2, LabelPolicy::kUnbiased, 13);
  for (int i = 0; i < 10000; ++i) core.Update(777);
  for (uint64_t i = 0; i < 50; ++i) core.Update(1000 + i);
  EXPECT_TRUE(core.Contains(777));
  EXPECT_GE(core.EstimateCount(777), 10000);
}

// ---- pinned update path ----
//
// Digests of Entries() plus TotalCount() after seeded streams, recorded
// from the engine before its count ranges were addressed by id. Update
// and UpdateBatch must both land on them: comparing the two paths with
// each other cannot catch a wrong range rule, since both run it. The
// streams drive the minimum range down to one bin over and over (the
// all-distinct and ascending-frequency orders of §6.3), at sizes from
// one bin to 65536.

uint64_t Fnv1aWord(uint64_t h, uint64_t word) {
  for (int b = 0; b < 8; ++b) {
    h ^= (word >> (8 * b)) & 0xff;
    h *= 1099511628211ull;
  }
  return h;
}

uint64_t CoreDigest(const SpaceSavingCore& core) {
  uint64_t h = 14695981039346656037ull;
  for (const SketchEntry& e : core.Entries()) {
    h = Fnv1aWord(h, e.item);
    h = Fnv1aWord(h, static_cast<uint64_t>(e.count));
  }
  return Fnv1aWord(h, static_cast<uint64_t>(core.TotalCount()));
}

// i.i.d. Zipf(0.8) rows over `n_items` items, by inverse CDF. At the
// sizes below its distinct labels outnumber the bins 1.6-4x, so the
// sketch keeps evicting (Zipf 1.1 leaves a 65536-bin sketch part empty).
std::vector<uint64_t> ZipfRows(size_t n_items, size_t rows, uint64_t seed) {
  std::vector<double> cdf(n_items);
  double total = 0;
  for (size_t i = 0; i < n_items; ++i) {
    total += std::pow(static_cast<double>(i + 1), -0.8);
    cdf[i] = total;
  }
  Rng rng(seed);
  std::vector<uint64_t> out(rows);
  for (uint64_t& item : out) {
    const double u = rng.NextDouble() * total;
    item = static_cast<uint64_t>(
        std::upper_bound(cdf.begin(), cdf.end() - 1, u) - cdf.begin());
  }
  return out;
}

// The Zipf rows again, sorted by ascending item frequency.
std::vector<uint64_t> AscendingRows(const std::vector<uint64_t>& rows,
                                    size_t n_items) {
  std::vector<int64_t> counts(n_items, 0);
  for (uint64_t item : rows) ++counts[item];
  return SortedStream(counts, /*ascending=*/true);
}

// Feeds `rows` through Update, or through UpdateBatch in uneven chunks.
void Feed(SpaceSavingCore& core, const std::vector<uint64_t>& rows,
          bool batch) {
  if (!batch) {
    for (uint64_t item : rows) core.Update(item);
    return;
  }
  constexpr size_t kChunk = 5003;
  for (size_t i = 0; i < rows.size(); i += kChunk) {
    const size_t n = std::min(kChunk, rows.size() - i);
    core.UpdateBatch(Span<const uint64_t>(rows.data() + i, n));
  }
}

TEST(UpdatePinTest, EntriesAndTotalsAreBitStable) {
  std::vector<std::pair<std::string, uint64_t>> cases;
  // Every policy x tie-break over `rows`, fed once per path into a sketch
  // of `capacity` bins that first loads `load`.
  auto pin = [&](const std::string& name, size_t capacity,
                 const std::vector<SketchEntry>& load,
                 const std::vector<uint64_t>& rows) {
    for (LabelPolicy policy :
         {LabelPolicy::kUnbiased, LabelPolicy::kDeterministic}) {
      for (TieBreak tb : {TieBreak::kRandom, TieBreak::kFirstSlot}) {
        uint64_t digests[2];
        for (bool batch : {false, true}) {
          SpaceSavingCore core(capacity, policy, 7, tb);
          if (!load.empty()) core.LoadEntries(load);
          Feed(core, rows, batch);
          digests[batch] = CoreDigest(core);
        }
        EXPECT_EQ(digests[0], digests[1]) << name << "/" << capacity;
        cases.push_back(
            {std::string(policy == LabelPolicy::kUnbiased ? "unbiased"
                                                           : "determ") +
                 (tb == TieBreak::kRandom ? "/random/" : "/first/") + name +
                 "/" + std::to_string(capacity),
             digests[0]});
      }
    }
  };
  for (size_t capacity : {size_t{1}, size_t{2}, size_t{3}, size_t{1024},
                          size_t{4096}, size_t{65536}}) {
    const size_t n_items = 16 * capacity + 64;
    const size_t n_rows = 4 * capacity + 4096;
    const std::vector<uint64_t> zipf = ZipfRows(n_items, n_rows, capacity);
    pin("zipf", capacity, {}, zipf);
    pin("distinct", capacity, {},
        DistinctStream(static_cast<int64_t>(n_rows), 1000));
    pin("ascending", capacity, {}, AscendingRows(zipf, n_items));
  }
  // LoadEntries into a part-empty sketch with heavy count ties, then
  // update: the ranges rebuilt by the load must drive the same updates.
  std::vector<SketchEntry> load;
  Rng rng(17);
  for (uint64_t i = 0; i < 3000; ++i) {
    load.push_back({50000 + i, 1 + static_cast<int64_t>(rng.NextBounded(8))});
  }
  pin("load", 4096, load, ZipfRows(20000, 30000, 18));

  const std::vector<std::pair<std::string, uint64_t>> pinned = {
      {"unbiased/random/zipf/1", 0xf8991aad017a5485ull},
      {"unbiased/first/zipf/1", 0xf8991aad017a5485ull},
      {"determ/random/zipf/1", 0xdae753cddff4ee11ull},
      {"determ/first/zipf/1", 0xdae753cddff4ee11ull},
      {"unbiased/random/distinct/1", 0xab20e5cab580a787ull},
      {"unbiased/first/distinct/1", 0xab20e5cab580a787ull},
      {"determ/random/distinct/1", 0x514c86650d210f03ull},
      {"determ/first/distinct/1", 0x514c86650d210f03ull},
      {"unbiased/random/ascending/1", 0xf8991aad017a5485ull},
      {"unbiased/first/ascending/1", 0xf8991aad017a5485ull},
      {"determ/random/ascending/1", 0xf8991aad017a5485ull},
      {"determ/first/ascending/1", 0xf8991aad017a5485ull},
      {"unbiased/random/zipf/2", 0xeebb83a9c2fdd849ull},
      {"unbiased/first/zipf/2", 0x1b66d8db50d3fde9ull},
      {"determ/random/zipf/2", 0xdd39b22d6eab078eull},
      {"determ/first/zipf/2", 0xdd39b22d6eab078eull},
      {"unbiased/random/distinct/2", 0xcccdd3c239e3810eull},
      {"unbiased/first/distinct/2", 0xb6d33220ba804b51ull},
      {"determ/random/distinct/2", 0x6a8fa17876ca9d00ull},
      {"determ/first/distinct/2", 0x6a8fa17876ca9d00ull},
      {"unbiased/random/ascending/2", 0x21e2e1e50eb20e2cull},
      {"unbiased/first/ascending/2", 0x3d86d5f2d92e5f92ull},
      {"determ/random/ascending/2", 0x886a35eda54d044bull},
      {"determ/first/ascending/2", 0x886a35eda54d044bull},
      {"unbiased/random/zipf/3", 0xdafc6e3dc253eaa3ull},
      {"unbiased/first/zipf/3", 0xc9798c7b9011b1d3ull},
      {"determ/random/zipf/3", 0x2f8712204e96b878ull},
      {"determ/first/zipf/3", 0x2f8712204e96b878ull},
      {"unbiased/random/distinct/3", 0x95d5dd3bb47bf0f2ull},
      {"unbiased/first/distinct/3", 0x2d3afc04908c47a1ull},
      {"determ/random/distinct/3", 0xaf980ced859b8719ull},
      {"determ/first/distinct/3", 0x4ba6df47075213b3ull},
      {"unbiased/random/ascending/3", 0x6c1b304693396091ull},
      {"unbiased/first/ascending/3", 0x3eb915df5159bdf0ull},
      {"determ/random/ascending/3", 0xed6ead8f7f6bd477ull},
      {"determ/first/ascending/3", 0xed6ead8f7f6bd477ull},
      {"unbiased/random/zipf/1024", 0x3f80f30d71253dceull},
      {"unbiased/first/zipf/1024", 0x237b8628f0be5410ull},
      {"determ/random/zipf/1024", 0xdfe73b55a559bc44ull},
      {"determ/first/zipf/1024", 0x9f7b64d1fdf39c83ull},
      {"unbiased/random/distinct/1024", 0xc8e43d569d3b9023ull},
      {"unbiased/first/distinct/1024", 0xc9426b1272c28124ull},
      {"determ/random/distinct/1024", 0x71f80e9dc0991385ull},
      {"determ/first/distinct/1024", 0x71f80e9dc0991385ull},
      {"unbiased/random/ascending/1024", 0x13c452e48784ee9aull},
      {"unbiased/first/ascending/1024", 0xcaa61191a5f5e4cbull},
      {"determ/random/ascending/1024", 0xc38dea42f5fe5945ull},
      {"determ/first/ascending/1024", 0x764caf071eb2de8bull},
      {"unbiased/random/zipf/4096", 0xacde7b49db4230d5ull},
      {"unbiased/first/zipf/4096", 0x407cb3eb5cefef86ull},
      {"determ/random/zipf/4096", 0x24032b10d52d7866ull},
      {"determ/first/zipf/4096", 0xb922c5b73e01d23cull},
      {"unbiased/random/distinct/4096", 0xd143f46796e20cddull},
      {"unbiased/first/distinct/4096", 0x901f244614b68edaull},
      {"determ/random/distinct/4096", 0x1744793673bd8ed5ull},
      {"determ/first/distinct/4096", 0x1744793673bd8ed5ull},
      {"unbiased/random/ascending/4096", 0xe91098d6051a9ea5ull},
      {"unbiased/first/ascending/4096", 0x4daac156e631e623ull},
      {"determ/random/ascending/4096", 0x7fd3c562587f9b89ull},
      {"determ/first/ascending/4096", 0xf6032013a36fc6b3ull},
      {"unbiased/random/zipf/65536", 0xa737781d28901e32ull},
      {"unbiased/first/zipf/65536", 0x0b587b5a96c3de71ull},
      {"determ/random/zipf/65536", 0x3f84915e3762f4deull},
      {"determ/first/zipf/65536", 0x55038677dad1f2abull},
      {"unbiased/random/distinct/65536", 0x460a83f7438bf5ddull},
      {"unbiased/first/distinct/65536", 0x9395270fafca23e5ull},
      {"determ/random/distinct/65536", 0xd826a9b3b73280a6ull},
      {"determ/first/distinct/65536", 0x2e00a1eb922bcf0eull},
      {"unbiased/random/ascending/65536", 0x777beeface215138ull},
      {"unbiased/first/ascending/65536", 0x5e00fd509f35fa24ull},
      {"determ/random/ascending/65536", 0xdd8319593c7f0244ull},
      {"determ/first/ascending/65536", 0x7891084c812a6b72ull},
      {"unbiased/random/load/4096", 0x0efd7eee5570453dull},
      {"unbiased/first/load/4096", 0xd29334dc4376fdc4ull},
      {"determ/random/load/4096", 0x8ee4785793a549f5ull},
      {"determ/first/load/4096", 0x172c06b55768aa79ull},
  };
  EXPECT_EQ(cases.size(), pinned.size());
  bool all_match = cases.size() == pinned.size();
  for (size_t i = 0; i < std::min(cases.size(), pinned.size()); ++i) {
    EXPECT_EQ(cases[i].first, pinned[i].first);
    EXPECT_EQ(cases[i].second, pinned[i].second) << cases[i].first;
    all_match = all_match && cases[i] == pinned[i];
  }
  if (!all_match) {
    for (const auto& [label, digest] : cases) {
      std::printf("      {\"%s\", 0x%016llxull},\n", label.c_str(),
                  static_cast<unsigned long long>(digest));
    }
  }
}

}  // namespace
}  // namespace dsketch
