// Tests for the classic linked-list stream summary engine (the structure
// ablation's baseline), cross-validated against the array engine.

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "core/space_saving_core.h"
#include "core/stream_summary_list.h"
#include "stats/welford.h"
#include "stream/distributions.h"
#include "stream/generators.h"
#include "util/random.h"

namespace dsketch {
namespace {

TEST(StreamSummaryListTest, ExactWhileDistinctItemsFit) {
  StreamSummaryList list(8, LabelPolicy::kDeterministic, 1);
  for (int rep = 0; rep < 3; ++rep) {
    for (uint64_t i = 0; i < 8; ++i) {
      for (uint64_t j = 0; j <= i; ++j) list.Update(i);
    }
  }
  for (uint64_t i = 0; i < 8; ++i) {
    EXPECT_EQ(list.EstimateCount(i), static_cast<int64_t>(3 * (i + 1)));
  }
  EXPECT_EQ(list.size(), 8u);
}

TEST(StreamSummaryListTest, TotalPreservedExactly) {
  for (LabelPolicy policy :
       {LabelPolicy::kDeterministic, LabelPolicy::kUnbiased}) {
    StreamSummaryList list(16, policy, 2);
    Rng rng(210);
    for (int i = 0; i < 20000; ++i) list.Update(rng.NextBounded(300));
    int64_t sum = 0;
    for (const SketchEntry& e : list.Entries()) sum += e.count;
    EXPECT_EQ(sum, 20000);
    EXPECT_EQ(list.TotalCount(), 20000);
  }
}

TEST(StreamSummaryListTest, EntriesSortedDescending) {
  StreamSummaryList list(32, LabelPolicy::kDeterministic, 3);
  Rng rng(211);
  for (int i = 0; i < 10000; ++i) list.Update(rng.NextBounded(1000));
  auto entries = list.Entries();
  EXPECT_EQ(entries.size(), 32u);
  for (size_t i = 1; i < entries.size(); ++i) {
    EXPECT_GE(entries[i - 1].count, entries[i].count);
  }
}

TEST(StreamSummaryListTest, DeterministicPolicyMatchesArrayEngine) {
  // Both engines with deterministic policy and first-slot... the engines
  // may pick different tie-break bins, but the *count multiset* of a
  // deterministic Space Saving sketch is tie-break invariant (it equals
  // the Misra-Gries projection plus the min count). Compare multisets.
  StreamSummaryList list(12, LabelPolicy::kDeterministic, 4);
  SpaceSavingCore core(12, LabelPolicy::kDeterministic, 5);
  Rng rng(212);
  for (int i = 0; i < 30000; ++i) {
    uint64_t item = rng.NextBounded(200);
    list.Update(item);
    core.Update(item);
  }
  std::vector<int64_t> list_counts, core_counts;
  for (const SketchEntry& e : list.Entries()) list_counts.push_back(e.count);
  for (const SketchEntry& e : core.Entries()) core_counts.push_back(e.count);
  EXPECT_EQ(list_counts, core_counts);
  EXPECT_EQ(list.MinCount(), core.MinCount());
}

TEST(StreamSummaryListTest, UnbiasedPolicyIsUnbiased) {
  std::vector<int64_t> counts{40, 20, 10, 5, 3, 2, 1, 1};
  std::vector<Welford> est(counts.size());
  for (int t = 0; t < 8000; ++t) {
    Rng rng(430000 + t);
    auto rows = PermutedStream(counts, rng);
    StreamSummaryList list(4, LabelPolicy::kUnbiased,
                           static_cast<uint64_t>(440000 + t));
    for (uint64_t item : rows) list.Update(item);
    for (size_t i = 0; i < counts.size(); ++i) {
      est[i].Add(static_cast<double>(list.EstimateCount(i)));
    }
  }
  for (size_t i = 0; i < counts.size(); ++i) {
    EXPECT_NEAR(est[i].mean(), static_cast<double>(counts[i]),
                5 * est[i].stderr_mean() + 0.05)
        << "item " << i;
  }
}

TEST(StreamSummaryListTest, MinCountZeroUntilFull) {
  StreamSummaryList list(4, LabelPolicy::kUnbiased, 6);
  list.Update(1);
  list.Update(2);
  EXPECT_EQ(list.MinCount(), 0);
  list.Update(3);
  list.Update(4);
  EXPECT_EQ(list.MinCount(), 1);
}

}  // namespace
}  // namespace dsketch
