// Frozen-image subsystem end to end: the freeze -> thaw round trip and
// its canonical-order contract, zero-decode queries (point lookups,
// SUM, TOPK, GROUPBY) answered straight off the image bit-identically
// to the thawed sketch, the mmap-backed FrozenSketchSource, the replica
// server (read-only SketchServer over a borrowed image), and the C ABI
// (capi/dsketch.h). The distributed merge accepting frozen inputs is
// covered too: CombineSerialized never looks past DeserializeUnbiased's
// envelope dispatch.

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "capi/dsketch.h"
#include "core/distributed.h"
#include "core/frequent_items.h"
#include "core/serialization.h"
#include "core/subset_sum.h"
#include "core/unbiased_space_saving.h"
#include "query/attribute_table.h"
#include "query/engine.h"
#include "query/frozen_source.h"
#include "query/predicate.h"
#include "service/client.h"
#include "service/server.h"
#include "service/transport.h"
#include "util/mmap_array.h"
#include "util/random.h"
#include "wire/codec.h"
#include "wire/frozen.h"

namespace dsketch {
namespace {

UnbiasedSpaceSaving MakeSketch(size_t capacity = 64, uint64_t universe = 200,
                               int rows = 5000) {
  UnbiasedSpaceSaving sketch(capacity, 42);
  Rng rng(99);
  for (int i = 0; i < rows; ++i) sketch.Update(rng.NextBounded(universe));
  return sketch;
}

// Attribute table covering [0, universe): dim0 = item % 5, dim1 = item % 3.
AttributeTable MakeAttrs(uint64_t universe) {
  AttributeTable attrs(2);
  for (uint64_t i = 0; i < universe; ++i) {
    attrs.AddItem(
        {static_cast<uint32_t>(i % 5), static_cast<uint32_t>(i % 3)});
  }
  return attrs;
}

bool SameEstimate(const SubsetSumEstimate& a, const SubsetSumEstimate& b) {
  return a.estimate == b.estimate && a.variance == b.variance &&
         a.items_in_sample == b.items_in_sample;
}

// Same groups, each with a bit-identical estimate.
template <typename Groups>
void ExpectSameGroups(const Groups& frozen, const Groups& thawed) {
  ASSERT_EQ(frozen.size(), thawed.size());
  for (const auto& [key, est] : frozen) {
    auto it = thawed.find(key);
    ASSERT_NE(it, thawed.end()) << key;
    EXPECT_TRUE(SameEstimate(est, it->second)) << key;
  }
}

TEST(FrozenTest, FreezeThawRoundTripPreservesState) {
  UnbiasedSpaceSaving sketch = MakeSketch();
  const std::string image = SerializeFrozen(sketch);

  auto info = wire::DescribeWire(image);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->kind, wire::kKindFrozenUnbiased);

  std::optional<UnbiasedSpaceSaving> thawed = ThawFrozen(image, 7);
  ASSERT_TRUE(thawed.has_value());
  EXPECT_EQ(thawed->TotalCount(), sketch.TotalCount());
  EXPECT_EQ(thawed->size(), sketch.size());
  EXPECT_EQ(thawed->capacity(), sketch.capacity());
  for (const SketchEntry& e : sketch.Entries()) {
    EXPECT_EQ(thawed->EstimateCount(e.item), e.count) << e.item;
  }

  // Freezing is a pure function of sketch state: the thawed copy
  // re-freezes to the identical bytes (the property replicas rely on
  // when they re-serve their image).
  EXPECT_EQ(SerializeFrozen(*thawed), image);
}

TEST(FrozenTest, ImageEntriesAreCanonicallyOrdered) {
  const std::string image = SerializeFrozen(MakeSketch());
  auto view = wire::FrozenView::Vet(image);
  ASSERT_TRUE(view.has_value());
  ASSERT_GT(view->entry_count(), 1u);
  for (uint64_t i = 1; i < view->entry_count(); ++i) {
    const wire::FrozenEntry prev = view->entry(i - 1);
    const wire::FrozenEntry cur = view->entry(i);
    EXPECT_TRUE(prev.count > cur.count ||
                (prev.count == cur.count && prev.item < cur.item))
        << "entries " << (i - 1) << " and " << i;
  }
}

TEST(FrozenTest, EmptySketchFreezesAndThaws) {
  UnbiasedSpaceSaving empty(16, 3);
  const std::string image = SerializeFrozen(empty);
  auto view = wire::FrozenView::Vet(image);
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(view->entry_count(), 0u);
  EXPECT_EQ(view->total_count(), 0);
  EXPECT_EQ(view->EstimateCount(1), 0);

  std::optional<UnbiasedSpaceSaving> thawed = ThawFrozen(image, 3);
  ASSERT_TRUE(thawed.has_value());
  EXPECT_EQ(thawed->size(), 0u);
  EXPECT_EQ(thawed->capacity(), 16u);
}

TEST(FrozenTest, FreezeIntoRejectsBadArguments) {
  const wire::FrozenEntry entries[] = {{3, 10}, {5, 10}, {9, 4}};
  const size_t n = 3;
  std::vector<unsigned char> buf(wire::FrozenImageBytes(n));

  // The happy path works...
  EXPECT_EQ(wire::FreezeInto(entries, n, 8, 0, 24, buf.data(), buf.size()),
            buf.size());
  // ...and each broken precondition returns 0 without writing.
  EXPECT_EQ(wire::FreezeInto(entries, n, 0, 0, 24, buf.data(), buf.size()),
            0u);  // zero capacity
  EXPECT_EQ(wire::FreezeInto(entries, n, 2, 0, 24, buf.data(), buf.size()),
            0u);  // entry_count > capacity
  EXPECT_EQ(wire::FreezeInto(entries, n, 8, -1, 24, buf.data(), buf.size()),
            0u);  // negative min_count
  EXPECT_EQ(wire::FreezeInto(entries, n, 8, 0, -1, buf.data(), buf.size()),
            0u);  // negative total_count
  EXPECT_EQ(
      wire::FreezeInto(entries, n, 8, 0, 24, buf.data(), buf.size() - 1),
      0u);  // buffer too small
  EXPECT_EQ(wire::FreezeInto(nullptr, n, 8, 0, 24, buf.data(), buf.size()),
            0u);  // null entries

  const wire::FrozenEntry unsorted[] = {{3, 10}, {5, 12}};
  EXPECT_EQ(
      wire::FreezeInto(unsorted, 2, 8, 0, 22, buf.data(), buf.size()),
      0u);  // counts ascending
  const wire::FrozenEntry tie_swapped[] = {{5, 10}, {3, 10}};
  EXPECT_EQ(
      wire::FreezeInto(tie_swapped, 2, 8, 0, 20, buf.data(), buf.size()),
      0u);  // tie out of item order
  const wire::FrozenEntry nonpositive[] = {{5, 0}};
  EXPECT_EQ(
      wire::FreezeInto(nonpositive, 1, 8, 0, 0, buf.data(), buf.size()),
      0u);  // zero count
  const wire::FrozenEntry duplicate[] = {{5, 10}, {5, 4}};
  EXPECT_EQ(
      wire::FreezeInto(duplicate, 2, 8, 0, 14, buf.data(), buf.size()),
      0u);  // same item twice
}

TEST(FrozenTest, EngineAnswersBitIdenticalOffTheImage) {
  UnbiasedSpaceSaving sketch = MakeSketch();
  const std::string image = SerializeFrozen(sketch);
  std::optional<UnbiasedSpaceSaving> thawed = ThawFrozen(image, 7);
  ASSERT_TRUE(thawed.has_value());
  std::optional<FrozenSketchSource> source =
      FrozenSketchSource::FromBlob(image);
  ASSERT_TRUE(source.has_value());
  EXPECT_TRUE(source->Validate());

  AttributeTable attrs = MakeAttrs(200);
  SketchQueryEngine frozen_engine(&*source, &attrs);
  SketchQueryEngine thawed_engine(&*thawed, &attrs);

  // SUM, unfiltered and per-value.
  EXPECT_TRUE(SameEstimate(frozen_engine.Sum(Predicate()),
                           thawed_engine.Sum(Predicate())));
  for (uint32_t v = 0; v < 5; ++v) {
    Predicate where;
    where.WhereEq(0, v);
    EXPECT_TRUE(
        SameEstimate(frozen_engine.Sum(where), thawed_engine.Sum(where)))
        << "dim0 == " << v;
  }

  // GROUPBY, one- and two-dimensional.
  Predicate filter;
  filter.WhereIn(1, {0, 2});
  ExpectSameGroups(frozen_engine.GroupBy1(0, filter),
                   thawed_engine.GroupBy1(0, filter));
  ExpectSameGroups(frozen_engine.GroupBy2(0, 1, Predicate()),
                   thawed_engine.GroupBy2(0, 1, Predicate()));

  // A table over [0, 120) leaves sampled items undescribed: both paths
  // must drop them from every group and every filtered sum alike.
  bool has_undescribed = false;
  for (const SketchEntry& e : thawed->Entries()) {
    has_undescribed = has_undescribed || e.item >= 120;
  }
  ASSERT_TRUE(has_undescribed);
  AttributeTable partial = MakeAttrs(120);
  SketchQueryEngine frozen_partial(&*source, &partial);
  SketchQueryEngine thawed_partial(&*thawed, &partial);
  Predicate dim0_is_2;
  dim0_is_2.WhereEq(0, 2);
  EXPECT_TRUE(SameEstimate(frozen_partial.Sum(dim0_is_2),
                           thawed_partial.Sum(dim0_is_2)));
  ExpectSameGroups(frozen_partial.GroupBy1(0, filter),
                   thawed_partial.GroupBy1(0, filter));
  ExpectSameGroups(frozen_partial.GroupBy2(0, 1, Predicate()),
                   thawed_partial.GroupBy2(0, 1, Predicate()));

  // TOPK straight off the image's native order.
  for (size_t k : {size_t{1}, size_t{5}, thawed->size()}) {
    std::vector<SketchEntry> frozen_top = FrozenTopK(source->frozen(), k);
    std::vector<SketchEntry> thawed_top = TopK(*thawed, k);
    ASSERT_EQ(frozen_top.size(), thawed_top.size()) << k;
    for (size_t i = 0; i < frozen_top.size(); ++i) {
      EXPECT_EQ(frozen_top[i].item, thawed_top[i].item) << k << "/" << i;
      EXPECT_EQ(frozen_top[i].count, thawed_top[i].count) << k << "/" << i;
    }
  }
}

TEST(FrozenTest, FromFileMapsAndAnswers) {
  UnbiasedSpaceSaving sketch = MakeSketch(32, 100, 2000);
  const std::string image = SerializeFrozen(sketch);
  const std::string path = "frozen_test_image.bin";
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(image.data(), 1, image.size(), f), image.size());
    std::fclose(f);
  }

  std::optional<FrozenSketchSource> source =
      FrozenSketchSource::FromFile(path);
  ASSERT_TRUE(source.has_value());
  EXPECT_TRUE(source->Validate());
  EXPECT_EQ(std::string(source->frozen().bytes()), image);
  for (const SketchEntry& e : sketch.Entries()) {
    // Same counts; the image and the live sketch may order ties
    // differently, so compare per item.
    EXPECT_EQ(source->frozen().EstimateCount(e.item),
              sketch.EstimateCount(e.item));
  }

  // SaveSnapshot re-serves the image bytes unchanged.
  EXPECT_EQ(source->SaveSnapshot(), image);
  std::remove(path.c_str());

  // A missing file is a clean failure, not a crash.
  EXPECT_FALSE(
      FrozenSketchSource::FromFile("frozen_test_missing.bin").has_value());
}

TEST(FrozenTest, CombineSerializedAcceptsFrozenInputs) {
  UnbiasedSpaceSaving a = MakeSketch(32, 80, 2000);
  UnbiasedSpaceSaving b(32, 43);
  Rng rng(7);
  for (int i = 0; i < 1500; ++i) b.Update(100 + rng.NextBounded(60));

  // Merging [frozen(a), v2(b)] must equal merging [v2(a), v2(b)]:
  // the merge path dispatches on the envelope per input.
  std::vector<std::string> mixed = {SerializeFrozen(a), Serialize(b)};
  std::vector<std::string> stream = {Serialize(a), Serialize(b)};
  auto merged_mixed = CombineSerialized(mixed, 64, 9);
  auto merged_stream = CombineSerialized(stream, 64, 9);
  ASSERT_TRUE(merged_mixed.has_value());
  ASSERT_TRUE(merged_stream.has_value());
  EXPECT_EQ(merged_mixed->TotalCount(), merged_stream->TotalCount());
  EXPECT_EQ(merged_mixed->TotalCount(), a.TotalCount() + b.TotalCount());
}

TEST(FrozenTest, ReplicaServerServesImageReadOnly) {
  UnbiasedSpaceSaving sketch = MakeSketch(32, 100, 3000);
  const std::string image = SerializeFrozen(sketch);
  std::optional<FrozenSketchSource> source =
      FrozenSketchSource::FromBlob(image);
  ASSERT_TRUE(source.has_value());

  SketchServerOptions options;
  options.seed = 7;
  SketchServer server(options, &*source, nullptr);
  InMemoryDuplex duplex;
  std::thread serve([&] { server.Serve(duplex.server()); });
  SketchClient client(duplex.client());

  // Reference: a peer that restored the same image the normal way.
  std::optional<UnbiasedSpaceSaving> thawed = ThawFrozen(image, 7);
  ASSERT_TRUE(thawed.has_value());

  auto stats = client.Stats();
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->total_count, thawed->TotalCount());

  auto top = client.QueryTopK(5);
  ASSERT_TRUE(top.has_value());
  std::vector<SketchEntry> want = FrozenTopK(source->frozen(), 5);
  ASSERT_EQ(top->counts.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(top->counts[i].item, want[i].item);
    EXPECT_EQ(top->counts[i].count, want[i].count);
  }

  // Writes are refused, and the replica's snapshot is the image itself.
  std::vector<uint64_t> rows = {1, 2, 3};
  EXPECT_FALSE(client.IngestBatch(Span<const uint64_t>(rows.data(), rows.size())));
  EXPECT_FALSE(client.Restore(Serialize(*thawed)));
  auto snap = client.Snapshot();
  ASSERT_TRUE(snap.has_value());
  EXPECT_EQ(*snap, image);

  // The replica reports its snapshot as a frozen image in STATS.
  stats = client.Stats();
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->last_snapshot_format, SnapshotFormat::kFrozen);
  EXPECT_EQ(stats->last_snapshot_bytes, image.size());

  EXPECT_TRUE(client.Shutdown());
  serve.join();
}

TEST(FrozenTest, CapiFreezesAndQueries) {
  // Freeze through the C ABI and cross-check against the C++ codec.
  const dsketch_frozen_entry entries[] = {{7, 100}, {3, 40}, {11, 40}, {1, 9}};
  const size_t n = 4;
  const size_t bytes = dsketch_freeze_size(n);
  ASSERT_EQ(bytes, wire::FrozenImageBytes(n));
  std::vector<unsigned char> image(bytes);
  ASSERT_EQ(dsketch_freeze(entries, n, 16, 0, 189, image.data(), bytes),
            bytes);

  ASSERT_EQ(dsketch_frozen_valid(image.data(), bytes), 1);
  EXPECT_EQ(dsketch_frozen_entry_count(image.data(), bytes), n);
  EXPECT_EQ(dsketch_frozen_total_count(image.data(), bytes), 189);
  EXPECT_EQ(dsketch_frozen_estimate(image.data(), bytes, 7), 100);
  EXPECT_EQ(dsketch_frozen_estimate(image.data(), bytes, 3), 40);
  EXPECT_EQ(dsketch_frozen_estimate(image.data(), bytes, 999), 0);

  const uint64_t subset[] = {3, 11};
  dsketch_frozen_sum sum;
  ASSERT_EQ(dsketch_frozen_query_sum(image.data(), bytes, subset, 2, &sum), 1);
  EXPECT_EQ(sum.estimate, 80.0);
  EXPECT_EQ(sum.items_in_sample, 2u);

  dsketch_frozen_entry top[8];
  ASSERT_EQ(dsketch_frozen_query_topk(image.data(), bytes, 8, top), n);
  EXPECT_EQ(top[0].item, 7u);
  EXPECT_EQ(top[0].count, 100);
  EXPECT_EQ(top[1].item, 3u);   // tie at 40 breaks by ascending item
  EXPECT_EQ(top[2].item, 11u);

  // Error paths: bad order, bad image, null out.
  const dsketch_frozen_entry unsorted[] = {{1, 5}, {2, 9}};
  EXPECT_EQ(dsketch_freeze(unsorted, 2, 4, 0, 14, image.data(), bytes), 0u);
  EXPECT_EQ(dsketch_frozen_valid(image.data(), bytes - 1), 0);
  EXPECT_EQ(dsketch_frozen_valid(nullptr, bytes), 0);
  EXPECT_EQ(dsketch_frozen_query_sum(image.data(), bytes, subset, 2, nullptr),
            0);

  // The C image round-trips through the C++ deep thaw.
  EXPECT_TRUE(
      ThawFrozen(std::string_view(reinterpret_cast<const char*>(image.data()),
                                  bytes),
                 3)
          .has_value());
}

TEST(FrozenTest, MappedFileFallsBackToHeapAndSurvivesMove) {
  const std::string path = "frozen_test_mapped.bin";
  const std::string payload = "frozen image stand-in";
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(payload.data(), 1, payload.size(), f),
              payload.size());
    std::fclose(f);
  }
  std::optional<MappedFile> mapped = MapFile(path);
  ASSERT_TRUE(mapped.has_value());
  EXPECT_EQ(std::string(mapped->bytes()), payload);

  // The view must survive a move (the SSO-dangling regression: a moved
  // heap-backed mapping must re-point at its own buffer).
  MappedFile moved = std::move(*mapped);
  EXPECT_EQ(std::string(moved.bytes()), payload);
  std::remove(path.c_str());

  EXPECT_FALSE(MapFile("frozen_test_missing_file.bin").has_value());
}

}  // namespace
}  // namespace dsketch
