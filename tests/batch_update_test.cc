// Batch/sequential equivalence: for every sketch variant, UpdateBatch
// with the same seed must be bit-for-bit identical to row-at-a-time
// Update — same bins in the same order, same totals, and the same RNG
// stream (checked by continuing both sketches with more rows afterwards).
// This is the contract that makes the batched ingestion path a pure
// performance change.

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "core/decayed_space_saving.h"
#include "core/deterministic_space_saving.h"
#include "core/unbiased_space_saving.h"
#include "core/weighted_space_saving.h"
#include "stream/distributions.h"
#include "stream/generators.h"
#include "util/random.h"
#include "util/span.h"

namespace dsketch {
namespace {

// A skewed stream with a realistic mix of tracked and untracked items.
std::vector<uint64_t> TestStream(size_t distinct, double mean, uint64_t seed) {
  auto counts = WeibullCounts(distinct, mean, 0.4);
  Rng rng(seed);
  return PermutedStream(counts, rng);
}

// Feeds `rows` via UpdateBatch in uneven batch sizes (including 0 and 1)
// to exercise chunk boundaries.
template <typename Fn>
void FeedInBatches(const std::vector<uint64_t>& rows, Fn&& feed) {
  static const size_t kSizes[] = {1, 7, 0, 256, 300, 31, 1024, 3};
  size_t pos = 0, s = 0;
  while (pos < rows.size()) {
    size_t len = kSizes[s % (sizeof(kSizes) / sizeof(kSizes[0]))];
    if (len > rows.size() - pos) len = rows.size() - pos;
    feed(Span<const uint64_t>(rows.data() + pos, len));
    pos += len;
    ++s;
  }
}

template <typename Sketch>
void ExpectSameState(const Sketch& a, const Sketch& b) {
  ASSERT_EQ(a.size(), b.size());
  auto ea = a.Entries(), eb = b.Entries();
  ASSERT_EQ(ea.size(), eb.size());
  for (size_t i = 0; i < ea.size(); ++i) {
    EXPECT_EQ(ea[i].item, eb[i].item) << "entry " << i;
    EXPECT_EQ(ea[i].count, eb[i].count) << "entry " << i;
  }
}

TEST(BatchUpdateTest, UnbiasedMatchesSequentialBitForBit) {
  auto rows = TestStream(5000, 40.0, 1);
  UnbiasedSpaceSaving row_by_row(128, 42), batched(128, 42);
  for (uint64_t item : rows) row_by_row.Update(item);
  FeedInBatches(rows, [&](Span<const uint64_t> b) { batched.UpdateBatch(b); });

  EXPECT_EQ(row_by_row.TotalCount(), batched.TotalCount());
  EXPECT_EQ(row_by_row.MinCount(), batched.MinCount());
  ExpectSameState(row_by_row, batched);

  // The RNG streams must be aligned too: continuing both sketches row by
  // row keeps them identical only if batching consumed the same draws.
  auto more = TestStream(5000, 10.0, 2);
  for (uint64_t item : more) {
    row_by_row.Update(item);
    batched.Update(item);
  }
  ExpectSameState(row_by_row, batched);
}

TEST(BatchUpdateTest, DeterministicMatchesSequentialBitForBit) {
  auto rows = TestStream(3000, 30.0, 3);
  DeterministicSpaceSaving row_by_row(64, 7), batched(64, 7);
  for (uint64_t item : rows) row_by_row.Update(item);
  FeedInBatches(rows, [&](Span<const uint64_t> b) { batched.UpdateBatch(b); });
  EXPECT_EQ(row_by_row.TotalCount(), batched.TotalCount());
  ExpectSameState(row_by_row, batched);
}

TEST(BatchUpdateTest, UnbiasedFirstSlotTieBreakAlsoMatches) {
  auto rows = TestStream(2000, 25.0, 4);
  UnbiasedSpaceSaving row_by_row(64, 5, TieBreak::kFirstSlot);
  UnbiasedSpaceSaving batched(64, 5, TieBreak::kFirstSlot);
  for (uint64_t item : rows) row_by_row.Update(item);
  FeedInBatches(rows, [&](Span<const uint64_t> b) { batched.UpdateBatch(b); });
  ExpectSameState(row_by_row, batched);
}

TEST(BatchUpdateTest, WeightedSharedWeightMatchesSequential) {
  auto rows = TestStream(3000, 30.0, 5);
  WeightedSpaceSaving row_by_row(100, 11), batched(100, 11);
  for (uint64_t item : rows) row_by_row.Update(item, 2.5);
  FeedInBatches(rows,
                [&](Span<const uint64_t> b) { batched.UpdateBatch(b, 2.5); });

  EXPECT_DOUBLE_EQ(row_by_row.TotalWeight(), batched.TotalWeight());
  auto ea = row_by_row.Entries(), eb = batched.Entries();
  ASSERT_EQ(ea.size(), eb.size());
  for (size_t i = 0; i < ea.size(); ++i) {
    EXPECT_EQ(ea[i].item, eb[i].item) << "entry " << i;
    EXPECT_DOUBLE_EQ(ea[i].weight, eb[i].weight) << "entry " << i;
  }
}

TEST(BatchUpdateTest, WeightedPerRowWeightsMatchSequential) {
  auto rows = TestStream(2000, 20.0, 6);
  std::vector<double> weights(rows.size());
  Rng rng(99);
  for (double& w : weights) w = 0.5 + 4.0 * rng.NextDouble();

  WeightedSpaceSaving row_by_row(80, 13), batched(80, 13);
  for (size_t i = 0; i < rows.size(); ++i) {
    row_by_row.Update(rows[i], weights[i]);
  }
  // Row-aligned batches of uneven sizes.
  static const size_t kSizes[] = {5, 113, 1, 256, 77};
  size_t pos = 0, s = 0;
  while (pos < rows.size()) {
    size_t len = kSizes[s % 5];
    if (len > rows.size() - pos) len = rows.size() - pos;
    batched.UpdateBatch(Span<const uint64_t>(rows.data() + pos, len),
                        Span<const double>(weights.data() + pos, len));
    pos += len;
    ++s;
  }

  EXPECT_DOUBLE_EQ(row_by_row.TotalWeight(), batched.TotalWeight());
  auto ea = row_by_row.Entries(), eb = batched.Entries();
  ASSERT_EQ(ea.size(), eb.size());
  for (size_t i = 0; i < ea.size(); ++i) {
    EXPECT_EQ(ea[i].item, eb[i].item) << "entry " << i;
    EXPECT_DOUBLE_EQ(ea[i].weight, eb[i].weight) << "entry " << i;
  }
}

TEST(BatchUpdateTest, DecayedEpochBatchesMatchSequential) {
  auto rows = TestStream(1500, 15.0, 7);
  DecayedSpaceSaving row_by_row(60, 100.0, 17), batched(60, 100.0, 17);
  // Three epochs at increasing timestamps.
  const double times[] = {10.0, 250.0, 900.0};
  const size_t third = rows.size() / 3;
  for (int e = 0; e < 3; ++e) {
    const size_t begin = e * third;
    const size_t end = e == 2 ? rows.size() : begin + third;
    for (size_t i = begin; i < end; ++i) {
      row_by_row.Update(rows[i], times[e], 1.5);
    }
    batched.UpdateBatch(
        Span<const uint64_t>(rows.data() + begin, end - begin), times[e], 1.5);
  }
  const double q = 1000.0;
  EXPECT_DOUBLE_EQ(row_by_row.TotalDecayedWeight(q),
                   batched.TotalDecayedWeight(q));
  auto ea = row_by_row.DecayedEntries(q), eb = batched.DecayedEntries(q);
  ASSERT_EQ(ea.size(), eb.size());
  for (size_t i = 0; i < ea.size(); ++i) {
    EXPECT_EQ(ea[i].item, eb[i].item) << "entry " << i;
    EXPECT_DOUBLE_EQ(ea[i].weight, eb[i].weight) << "entry " << i;
  }
}

TEST(BatchUpdateTest, PipelinedLargeSketchPathMatchesSequential) {
  // Sketches with >= 65536 bins dispatch to PipelinedUpdateBatch (the
  // lookahead/staleness-validation path); everything smaller takes the
  // simple loop, so this test is the only equivalence coverage the
  // pipelined path gets. The stream interleaves repeats at distances
  // shorter than the pipeline's lookahead window — including immediate
  // duplicates of previously-unseen items — to force stale "untracked"
  // verdicts (the adopted-ring redo) and stale positions (labels moved
  // or evicted between lookup and apply).
  constexpr size_t kCapacity = 65536;
  // More distinct items than bins, so the sketch fills and the eviction /
  // Bernoulli branches run; small per-item counts keep the min range wide.
  auto base = TestStream(200000, 1.0, 9);
  std::vector<uint64_t> rows;
  rows.reserve(base.size() * 2);
  Rng dup(77);
  for (size_t i = 0; i < base.size(); ++i) {
    rows.push_back(base[i]);
    // Echo a recent row at a random in-window distance ~half the time.
    if (dup.NextBernoulli(0.5)) {
      size_t back = static_cast<size_t>(dup.NextBounded(8)) + 1;
      rows.push_back(base[i >= back ? i - back : 0]);
    }
  }

  for (LabelPolicy policy :
       {LabelPolicy::kUnbiased, LabelPolicy::kDeterministic}) {
    SpaceSavingCore row_by_row(kCapacity, policy, 1234);
    SpaceSavingCore batched(kCapacity, policy, 1234);
    for (uint64_t item : rows) row_by_row.Update(item);
    FeedInBatches(rows,
                  [&](Span<const uint64_t> b) { batched.UpdateBatch(b); });

    EXPECT_EQ(row_by_row.TotalCount(), batched.TotalCount());
    EXPECT_EQ(row_by_row.MinCount(), batched.MinCount());
    auto ea = row_by_row.Entries(), eb = batched.Entries();
    ASSERT_EQ(ea.size(), eb.size());
    for (size_t i = 0; i < ea.size(); ++i) {
      ASSERT_EQ(ea[i].item, eb[i].item) << "entry " << i;
      ASSERT_EQ(ea[i].count, eb[i].count) << "entry " << i;
    }

    // RNG alignment: continue both row-by-row and they must stay equal.
    for (uint64_t item = 1; item <= 50000; ++item) {
      row_by_row.Update(item * 31);
      batched.Update(item * 31);
    }
    EXPECT_EQ(row_by_row.MinCount(), batched.MinCount());
    auto fa = row_by_row.Entries(), fb = batched.Entries();
    ASSERT_EQ(fa.size(), fb.size());
    for (size_t i = 0; i < fa.size(); ++i) {
      ASSERT_EQ(fa[i].item, fb[i].item) << "entry " << i;
      ASSERT_EQ(fa[i].count, fb[i].count) << "entry " << i;
    }
  }
}

TEST(BatchUpdateTest, EmptyAndSingletonBatchesAreNoOpsOrOneRow) {
  UnbiasedSpaceSaving sketch(16, 3);
  sketch.UpdateBatch(Span<const uint64_t>());
  EXPECT_EQ(sketch.TotalCount(), 0);
  uint64_t one = 7;
  sketch.UpdateBatch(Span<const uint64_t>(&one, 1));
  EXPECT_EQ(sketch.TotalCount(), 1);
  EXPECT_EQ(sketch.EstimateCount(7), 1);
}

}  // namespace
}  // namespace dsketch
