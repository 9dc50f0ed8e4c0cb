// Tests for core/merge: Theorem 2 unbiased reductions (pairwise PPS and
// priority sampling), exact total preservation, the Misra-Gries reduction,
// end-to-end sketch merges, the entry orderings of core/entry_order, and
// pinned bytes of every merge path.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include <limits>
#include <map>

#include <gtest/gtest.h>

#include "core/entry_order.h"
#include "core/merge.h"
#include "core/serialization.h"
#include "shard/sharded_sketch.h"
#include "stats/welford.h"
#include "stream/distributions.h"
#include "stream/generators.h"
#include "util/random.h"
#include "window/windowed_sketch.h"
#include "wire/codec.h"
#include "wire/varint.h"

namespace dsketch {
namespace {

std::vector<SketchEntry> TestEntries() {
  return {{1, 100}, {2, 50}, {3, 20}, {4, 10}, {5, 5},
          {6, 3},   {7, 2},  {8, 1},  {9, 1},  {10, 1}};
}

TEST(CombineEntriesTest, SumsDuplicates) {
  auto combined = CombineEntries({{1, 5}, {2, 3}}, {{2, 4}, {3, 1}});
  std::unordered_map<uint64_t, int64_t> m;
  for (const auto& e : combined) m[e.item] = e.count;
  EXPECT_EQ(m.size(), 3u);
  EXPECT_EQ(m[1], 5);
  EXPECT_EQ(m[2], 7);
  EXPECT_EQ(m[3], 1);
}

// ---- entry ordering ----
//
// SortEntries must produce exactly what a comparison sort produces. For
// the two count orders the key is the whole entry, so std::sort's output
// is unique; kByItem keeps equal labels in input order, so its reference
// is std::stable_sort. Sizes run from empty and single entries to 5000.

bool CanonicalLess(const SketchEntry& a, const SketchEntry& b) {
  return a.count != b.count ? a.count < b.count : a.item < b.item;
}
bool ItemLess(const SketchEntry& a, const SketchEntry& b) {
  return a.item < b.item;
}
bool LoadLess(const SketchEntry& a, const SketchEntry& b) {
  return a.count != b.count ? a.count < b.count : a.item > b.item;
}

void ExpectMatchesComparisonSort(const std::vector<SketchEntry>& input,
                                 const std::string& what) {
  struct Case {
    EntryOrder order;
    bool (*less)(const SketchEntry&, const SketchEntry&);
    const char* name;
  };
  const Case cases[] = {{EntryOrder::kCanonical, CanonicalLess, "canonical"},
                        {EntryOrder::kByItem, ItemLess, "by_item"},
                        {EntryOrder::kLoad, LoadLess, "load"}};
  for (const Case& c : cases) {
    std::vector<SketchEntry> expected = input;
    if (c.order == EntryOrder::kByItem) {
      std::stable_sort(expected.begin(), expected.end(), c.less);
    } else {
      std::sort(expected.begin(), expected.end(), c.less);
    }
    std::vector<SketchEntry> actual = input;
    SortEntries(actual, c.order);
    EXPECT_EQ(actual, expected) << what << " n=" << input.size() << " "
                                << c.name;
  }
}

// `n` entries whose items and counts come from the given draws.
template <typename ItemFn, typename CountFn>
std::vector<SketchEntry> RandomEntries(size_t n, uint64_t seed, ItemFn item,
                                       CountFn count) {
  Rng rng(seed);
  std::vector<SketchEntry> out(n);
  for (SketchEntry& e : out) {
    e.item = item(rng);
    e.count = count(rng);
  }
  return out;
}

TEST(EntryOrderTest, MatchesComparisonSortOnSeededInputs) {
  const uint64_t kMax = std::numeric_limits<uint64_t>::max();
  const int64_t kMin64 = std::numeric_limits<int64_t>::min();
  const int64_t kMax64 = std::numeric_limits<int64_t>::max();
  auto any_item = [](Rng& r) { return r.NextU64(); };
  auto few_items = [](Rng& r) { return r.NextBounded(40); };  // duplicates
  auto top_items = [kMax](Rng& r) { return kMax - r.NextBounded(600); };
  auto tied = [](Rng& r) { return static_cast<int64_t>(r.NextBounded(3)); };
  auto signed_small = [](Rng& r) {
    return static_cast<int64_t>(r.NextBounded(2001)) - 1000;
  };
  auto extremes = [=](Rng& r) {
    const int64_t picks[] = {kMin64, kMin64 + 1, -1, 0, 1, kMax64 - 1, kMax64};
    return picks[r.NextBounded(7)];
  };
  auto spread = [](Rng& r) { return static_cast<int64_t>(r.NextU64() >> 1); };

  const std::vector<size_t> sizes = {0,   1,   2,   17,  254, 255,
                                     256, 257, 258, 600, 5000};
  uint64_t seed = 1;
  for (size_t n : sizes) {
    ExpectMatchesComparisonSort(RandomEntries(n, ++seed, any_item, tied),
                                "heavy ties");
    ExpectMatchesComparisonSort(
        RandomEntries(n, ++seed, any_item, signed_small), "signed counts");
    ExpectMatchesComparisonSort(RandomEntries(n, ++seed, any_item, extremes),
                                "extreme counts");
    ExpectMatchesComparisonSort(RandomEntries(n, ++seed, top_items, spread),
                                "items near UINT64_MAX");
    ExpectMatchesComparisonSort(RandomEntries(n, ++seed, few_items, tied),
                                "repeated items");
    ExpectMatchesComparisonSort(
        RandomEntries(n, ++seed, top_items, signed_small), "top items, signed");

    // Already in each order, and in each order reversed.
    for (auto less : {CanonicalLess, ItemLess, LoadLess}) {
      std::vector<SketchEntry> sorted =
          RandomEntries(n, ++seed, top_items, signed_small);
      std::sort(sorted.begin(), sorted.end(), less);
      ExpectMatchesComparisonSort(sorted, "sorted");
      std::reverse(sorted.begin(), sorted.end());
      ExpectMatchesComparisonSort(sorted, "reversed");
    }
  }
}

TEST(EntryOrderTest, CombineByItemSumsEachLabelOnce) {
  for (size_t n : {size_t{0}, size_t{10}, size_t{255}, size_t{300},
                   size_t{4000}}) {
    std::vector<SketchEntry> entries = RandomEntries(
        n, 70 + n, [](Rng& r) { return ~uint64_t{0} - r.NextBounded(500); },
        [](Rng& r) { return static_cast<int64_t>(r.NextBounded(100)) - 10; });
    std::map<uint64_t, int64_t> expected;
    for (const SketchEntry& e : entries) expected[e.item] += e.count;
    CombineByItem(entries);
    ASSERT_EQ(entries.size(), expected.size()) << "n=" << n;
    size_t i = 0;
    for (const auto& [item, count] : expected) {
      EXPECT_EQ(entries[i].item, item);
      EXPECT_EQ(entries[i].count, count);
      ++i;
    }
  }
}

TEST(ReducePairwiseTest, PreservesTotalExactly) {
  Rng rng(150);
  auto reduced = ReducePairwise(TestEntries(), 4, rng);
  EXPECT_EQ(reduced.size(), 4u);
  int64_t total = 0;
  for (const auto& e : reduced) total += e.count;
  EXPECT_EQ(total, 193);
}

TEST(ReducePairwiseTest, NoOpWhenUnderTarget) {
  Rng rng(151);
  auto entries = TestEntries();
  auto reduced = ReducePairwise(entries, 20, rng);
  EXPECT_EQ(reduced, entries);
}

TEST(ReducePairwiseTest, PerItemExpectationPreserved) {
  // Theorem 2: E[post-reduction estimate] = pre-reduction estimate.
  auto entries = TestEntries();
  std::vector<Welford> est(11);
  for (int t = 0; t < 60000; ++t) {
    Rng rng(160000 + t);
    auto reduced = ReducePairwise(entries, 3, rng);
    std::unordered_map<uint64_t, int64_t> m;
    for (const auto& e : reduced) m[e.item] = e.count;
    for (uint64_t x = 1; x <= 10; ++x) {
      auto it = m.find(x);
      est[x].Add(it != m.end() ? static_cast<double>(it->second) : 0.0);
    }
  }
  auto truth = TestEntries();
  for (const auto& e : truth) {
    EXPECT_NEAR(est[e.item].mean(), static_cast<double>(e.count),
                5 * est[e.item].stderr_mean() + 0.05)
        << "item " << e.item;
  }
}

TEST(ReducePriorityTest, PerItemExpectationPreserved) {
  auto entries = TestEntries();
  std::vector<Welford> est(11);
  for (int t = 0; t < 60000; ++t) {
    Rng rng(170000 + t);
    auto reduced = ReducePriority(entries, 5, rng);
    EXPECT_EQ(reduced.size(), 5u);
    std::unordered_map<uint64_t, double> m;
    for (const auto& e : reduced) m[e.item] = e.weight;
    for (uint64_t x = 1; x <= 10; ++x) {
      auto it = m.find(x);
      est[x].Add(it != m.end() ? it->second : 0.0);
    }
  }
  for (const auto& e : entries) {
    EXPECT_NEAR(est[e.item].mean(), static_cast<double>(e.count),
                5 * est[e.item].stderr_mean() + 0.05)
        << "item " << e.item;
  }
}

TEST(ReducePriorityTest, PassthroughUnderTarget) {
  Rng rng(152);
  auto reduced = ReducePriority({{1, 7}, {2, 3}}, 5, rng);
  ASSERT_EQ(reduced.size(), 2u);
  std::unordered_map<uint64_t, double> m;
  for (const auto& e : reduced) m[e.item] = e.weight;
  EXPECT_EQ(m[1], 7.0);
  EXPECT_EQ(m[2], 3.0);
}

TEST(ReduceMisraGriesTest, SoftThresholdByTargetPlusOneth) {
  auto reduced = ReduceMisraGries(TestEntries(), 4);
  // (4+1)-th largest of {100,50,20,10,5,...} is 5: counts shrink by 5.
  std::unordered_map<uint64_t, int64_t> m;
  for (const auto& e : reduced) m[e.item] = e.count;
  EXPECT_LE(reduced.size(), 4u);
  EXPECT_EQ(m[1], 95);
  EXPECT_EQ(m[2], 45);
  EXPECT_EQ(m[3], 15);
  EXPECT_EQ(m[4], 5);
  EXPECT_EQ(m.count(5), 0u);
}

TEST(MergeTest, UnbiasedMergePreservesCombinedTotal) {
  UnbiasedSpaceSaving a(16, 1), b(16, 2);
  Rng rng(153);
  for (int i = 0; i < 5000; ++i) a.Update(rng.NextBounded(100));
  for (int i = 0; i < 3000; ++i) b.Update(200 + rng.NextBounded(100));
  UnbiasedSpaceSaving merged = Merge(a, b, 16, 3);
  EXPECT_EQ(merged.TotalCount(), 8000);
  EXPECT_LE(merged.size(), 16u);
}

TEST(MergeTest, UnbiasedMergeEstimatesAreUnbiased) {
  // Split one stream across two sketches, merge, compare to truth.
  std::vector<int64_t> counts{80, 40, 20, 10, 6, 4, 2, 2, 1, 1};
  std::vector<Welford> est(counts.size());
  const int kTrials = 15000;
  for (int t = 0; t < kTrials; ++t) {
    Rng rng(180000 + t);
    auto rows = PermutedStream(counts, rng);
    UnbiasedSpaceSaving a(5, 190000 + t), b(5, 195000 + t);
    for (size_t i = 0; i < rows.size(); ++i) {
      (i % 2 == 0 ? a : b).Update(rows[i]);
    }
    UnbiasedSpaceSaving merged = Merge(a, b, 5, 198000 + t);
    for (size_t i = 0; i < counts.size(); ++i) {
      est[i].Add(static_cast<double>(merged.EstimateCount(i)));
    }
  }
  for (size_t i = 0; i < counts.size(); ++i) {
    EXPECT_NEAR(est[i].mean(), static_cast<double>(counts[i]),
                5 * est[i].stderr_mean() + 0.1)
        << "item " << i;
  }
}

TEST(MergeTest, DeterministicMergeKeepsHeavyHitters) {
  DeterministicSpaceSaving a(8, 1), b(8, 2);
  for (int i = 0; i < 1000; ++i) {
    a.Update(1);
    b.Update(2);
  }
  for (int i = 0; i < 50; ++i) {
    a.Update(10 + static_cast<uint64_t>(i) % 20);
    b.Update(40 + static_cast<uint64_t>(i) % 20);
  }
  DeterministicSpaceSaving merged = Merge(a, b, 8, 3);
  EXPECT_TRUE(merged.Contains(1));
  EXPECT_TRUE(merged.Contains(2));
  EXPECT_GT(merged.EstimateCount(1), 900);
  EXPECT_LE(merged.size(), 8u);
}

TEST(MergeTest, MergeAllCombinesManySketches) {
  const int kShards = 6;
  std::vector<UnbiasedSpaceSaving> shards;
  for (int s = 0; s < kShards; ++s) shards.emplace_back(8, 100 + s);
  Rng rng(154);
  int64_t rows = 0;
  for (int i = 0; i < 12000; ++i) {
    shards[static_cast<size_t>(rng.NextBounded(kShards))].Update(
        rng.NextBounded(300));
    ++rows;
  }
  std::vector<const UnbiasedSpaceSaving*> ptrs;
  for (const auto& s : shards) ptrs.push_back(&s);
  UnbiasedSpaceSaving merged = MergeAll(ptrs, 12, 5);
  EXPECT_EQ(merged.TotalCount(), rows);
  EXPECT_LE(merged.size(), 12u);
}

TEST(ReducePairwiseWeightedTest, PreservesTotalAndExpectation) {
  std::vector<WeightedEntry> entries{{1, 50.5}, {2, 20.25}, {3, 10.0},
                                     {4, 5.5},  {5, 2.25},  {6, 1.5}};
  double total = 0;
  for (const auto& e : entries) total += e.weight;

  std::vector<Welford> est(7);
  for (int t = 0; t < 40000; ++t) {
    Rng rng(600000 + t);
    auto reduced = ReducePairwiseWeighted(entries, 3, rng);
    EXPECT_EQ(reduced.size(), 3u);
    double sum = 0;
    std::unordered_map<uint64_t, double> m;
    for (const auto& e : reduced) {
      sum += e.weight;
      m[e.item] = e.weight;
    }
    EXPECT_NEAR(sum, total, 1e-9);
    for (uint64_t x = 1; x <= 6; ++x) {
      auto it = m.find(x);
      est[x].Add(it != m.end() ? it->second : 0.0);
    }
  }
  for (const auto& e : entries) {
    EXPECT_NEAR(est[e.item].mean(), e.weight,
                5 * est[e.item].stderr_mean() + 0.01)
        << "item " << e.item;
  }
}

TEST(MergeTest, WeightedMergePreservesTotal) {
  WeightedSpaceSaving a(8, 1), b(8, 2);
  Rng rng(155);
  double total = 0;
  for (int i = 0; i < 3000; ++i) {
    double w = 0.5 + rng.NextDouble();
    a.Update(rng.NextBounded(40), w);
    total += w;
  }
  for (int i = 0; i < 2000; ++i) {
    double w = 0.5 + rng.NextDouble();
    b.Update(50 + rng.NextBounded(40), w);
    total += w;
  }
  WeightedSpaceSaving merged = Merge(a, b, 8, 3);
  EXPECT_NEAR(merged.TotalWeight(), total, 1e-6 * total);
  EXPECT_LE(merged.size(), 8u);
  // The merged sketch keeps accepting rows.
  merged.Update(999, 1.25);
  EXPECT_NEAR(merged.TotalWeight(), total + 1.25, 1e-6 * total);
}

TEST(MergeTest, WeightedMergeEstimatesAreUnbiased) {
  const std::vector<double> weights{30.0, 12.0, 6.0, 3.0, 1.5, 1.5, 0.75,
                                    0.75};
  std::vector<Welford> est(weights.size());
  const int kTrials = 15000;
  for (int t = 0; t < kTrials; ++t) {
    Rng order(610000 + t);
    WeightedSpaceSaving a(3, 620000 + t), b(3, 630000 + t);
    std::vector<size_t> idx(weights.size());
    for (size_t i = 0; i < idx.size(); ++i) idx[i] = i;
    order.Shuffle(idx.data(), idx.size());
    for (size_t i = 0; i < idx.size(); ++i) {
      (i % 2 == 0 ? a : b).Update(idx[i], weights[idx[i]]);
    }
    WeightedSpaceSaving merged = Merge(a, b, 3, 640000 + t);
    for (size_t i = 0; i < weights.size(); ++i) {
      est[i].Add(merged.EstimateWeight(i));
    }
  }
  for (size_t i = 0; i < weights.size(); ++i) {
    EXPECT_NEAR(est[i].mean(), weights[i], 5 * est[i].stderr_mean() + 0.02)
        << "item " << i;
  }
}

TEST(MergeTest, MergedSketchRemainsUsable) {
  UnbiasedSpaceSaving a(8, 1), b(8, 2);
  for (int i = 0; i < 500; ++i) {
    a.Update(static_cast<uint64_t>(i % 10));
    b.Update(static_cast<uint64_t>(i % 7));
  }
  UnbiasedSpaceSaving merged = Merge(a, b, 8, 3);
  int64_t before = merged.TotalCount();
  for (int i = 0; i < 100; ++i) merged.Update(999);
  EXPECT_EQ(merged.TotalCount(), before + 100);
  EXPECT_GE(merged.EstimateCount(999), 100);
}

// ---- pinned merge bytes ----
//
// Every §5.3 merge consumes its RNG draws in the canonical (count, item)
// order of the combined entries, so the serialized result is a function
// of the entry multiset and the seed alone. These digests pin that: a
// change to how entries are combined or ordered that is not exactly
// order-preserving shows up here as a mismatch.

uint64_t Fnv1a64(std::string_view bytes) {
  uint64_t h = 14695981039346656037ull;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

// Skewed labels spread over all 64 bits: a few heavy items, a long tail,
// and heavy count ties among the tail bins.
std::vector<uint64_t> SkewedRows(uint64_t seed, size_t rows) {
  Rng rng(seed);
  std::vector<uint64_t> out(rows);
  for (uint64_t& item : out) {
    item = rng.NextBounded(rng.NextBounded(6000) + 1) * 0x9E3779B97F4A7C15ull;
  }
  return out;
}

// The deterministic sketch has no wire codec; its merge is pinned in the
// byte layout that codec used (envelope kind 2, version 2, then varint
// capacity, entry count, and item + count delta per entry in Entries()
// order), so its digest is comparable across revisions.
std::string DeterministicPinBytes(const DeterministicSpaceSaving& sketch) {
  const std::vector<SketchEntry> entries = sketch.Entries();
  std::string out;
  wire::WriteEnvelope(out, /*kind=*/2, wire::kVersionCurrent);
  wire::VarintWriter writer(out);
  writer.PutVarint(sketch.capacity());
  writer.PutVarint(entries.size());
  int64_t prev = 0;
  for (size_t i = 0; i < entries.size(); ++i) {
    writer.PutVarint(entries[i].item);
    writer.PutVarint(static_cast<uint64_t>(
        i == 0 ? entries[i].count : prev - entries[i].count));
    prev = entries[i].count;
  }
  return out;
}

UnbiasedSpaceSaving FilledSketch(size_t capacity, uint64_t seed,
                                 uint64_t stream_seed, size_t rows) {
  UnbiasedSpaceSaving sketch(capacity, seed);
  const std::vector<uint64_t> items = SkewedRows(stream_seed, rows);
  sketch.UpdateBatch(Span<const uint64_t>(items.data(), items.size()));
  return sketch;
}

TEST(MergeBytesPinTest, MergeOutputsAreBitStable) {
  std::vector<std::pair<std::string, std::string>> blobs;

  // Merge of two sketches over overlapping label sets.
  const UnbiasedSpaceSaving a = FilledSketch(600, 21, 1, 40000);
  const UnbiasedSpaceSaving b = FilledSketch(500, 22, 2, 30000);
  blobs.push_back({"merge", Serialize(Merge(a, b, 512, 11))});
  blobs.push_back({"merge_small", Serialize(Merge(a, b, 64, 12))});

  // Deterministic (Misra-Gries) merge shares the combine step.
  DeterministicSpaceSaving da(300, 1), db(300, 2);
  for (uint64_t item : SkewedRows(3, 20000)) da.Update(item);
  for (uint64_t item : SkewedRows(4, 20000)) db.Update(item);
  blobs.push_back(
      {"merge_deterministic", DeterministicPinBytes(Merge(da, db, 256, 13))});

  // MergeAll over five sketches.
  std::vector<UnbiasedSpaceSaving> many;
  for (uint64_t s = 0; s < 5; ++s) {
    many.push_back(FilledSketch(400, 30 + s, 10 + s, 15000));
  }
  std::vector<const UnbiasedSpaceSaving*> ptrs;
  for (const UnbiasedSpaceSaving& s : many) ptrs.push_back(&s);
  blobs.push_back({"merge_all", Serialize(MergeAll(ptrs, 700, 14))});

  // MergeShards through the sharded front-end, with an absorbed remote.
  {
    ShardedSketchOptions opt;
    opt.num_shards = 2;
    opt.shard_capacity = 512;
    opt.seed = 40;
    ShardedSpaceSaving sharded(opt);
    const std::vector<uint64_t> rows = SkewedRows(5, 50000);
    sharded.Ingest(Span<const uint64_t>(rows.data(), rows.size()));
    ASSERT_TRUE(sharded.IngestSerialized(Serialize(b)));
    blobs.push_back(
        {"merge_shards_remote", Serialize(sharded.Snapshot(512, 15))});
  }

  // QueryWindow over a full ring that has advanced past its length.
  {
    WindowedSketchOptions opt;
    opt.window_epochs = 12;
    opt.epoch_capacity = 256;
    opt.merged_capacity = 512;
    opt.seed = 50;
    WindowedSpaceSaving windowed(opt);
    for (uint64_t e = 0; e < 15; ++e) {
      const std::vector<uint64_t> rows = SkewedRows(100 + e, 6000);
      windowed.UpdateBatch(Span<const uint64_t>(rows.data(), rows.size()));
      if (e + 1 < 15) windowed.Advance();
    }
    for (size_t last_k : {size_t{1}, size_t{8}, size_t{0}}) {
      blobs.push_back({"query_window_" + std::to_string(last_k),
                       Serialize(windowed.QueryWindow(last_k))});
    }
  }

  const std::vector<std::pair<std::string, uint64_t>> pinned = {
      {"merge", 0x389d309d77417ba4ull},
      {"merge_small", 0x48e33622c59cac4dull},
      {"merge_deterministic", 0x8dfbda0573d42d21ull},
      {"merge_all", 0xa0758e625a179a0full},
      {"merge_shards_remote", 0x15d0243cb7d1071dull},
      {"query_window_1", 0xc15718bf57c5d208ull},
      {"query_window_8", 0x592358810e438523ull},
      {"query_window_0", 0x686617b8fcc3ad0dull},
  };
  ASSERT_EQ(blobs.size(), pinned.size());
  bool all_match = true;
  for (size_t i = 0; i < blobs.size(); ++i) {
    EXPECT_EQ(blobs[i].first, pinned[i].first);
    const uint64_t digest = Fnv1a64(blobs[i].second);
    EXPECT_EQ(digest, pinned[i].second) << blobs[i].first;
    all_match = all_match && digest == pinned[i].second;
  }
  if (!all_match) {
    for (const auto& [label, blob] : blobs) {
      std::printf("      {\"%s\", 0x%016llxull},\n", label.c_str(),
                  static_cast<unsigned long long>(Fnv1a64(blob)));
    }
  }
}

}  // namespace
}  // namespace dsketch
