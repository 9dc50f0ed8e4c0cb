// Tests for core/serialization: v2 round trips for the Unbiased and
// weighted kinds, v1 cross-version decoding, network-merge workflows, per-version
// wire-size budgets, and rejection of malformed/hostile inputs. The
// offset-based tampering tests target the fixed-width v1 layout via
// SerializeV1; wire_adversarial_test sweeps both versions exhaustively.

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/merge.h"
#include "core/serialization.h"
#include "stream/distributions.h"
#include "stream/generators.h"
#include "util/random.h"
#include "util/span.h"
#include "wire_golden_common.h"

namespace dsketch {
namespace {

using golden::Canonical;

TEST(SerializationTest, UnbiasedRoundTrip) {
  UnbiasedSpaceSaving sketch(32, 1);
  Rng rng(400);
  for (int i = 0; i < 5000; ++i) sketch.Update(rng.NextBounded(200));

  std::string bytes = Serialize(sketch);
  auto restored = DeserializeUnbiased(bytes, 2);
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(restored->capacity(), sketch.capacity());
  EXPECT_EQ(restored->size(), sketch.size());
  EXPECT_EQ(restored->TotalCount(), sketch.TotalCount());
  EXPECT_EQ(restored->MinCount(), sketch.MinCount());
  EXPECT_EQ(Canonical(restored->Entries()), Canonical(sketch.Entries()));
}

TEST(SerializationTest, WeightedRoundTrip) {
  WeightedSpaceSaving sketch(8, 4);
  Rng rng(401);
  for (int i = 0; i < 2000; ++i) {
    sketch.Update(rng.NextBounded(50), 0.25 + rng.NextDouble());
  }
  std::string bytes = Serialize(sketch);
  auto restored = DeserializeWeighted(bytes);
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(restored->size(), sketch.size());
  EXPECT_NEAR(restored->TotalWeight(), sketch.TotalWeight(),
              1e-9 * sketch.TotalWeight());
  for (const WeightedEntry& e : sketch.Entries()) {
    EXPECT_DOUBLE_EQ(restored->EstimateWeight(e.item), e.weight);
  }
}

TEST(SerializationTest, EmptySketchRoundTrip) {
  UnbiasedSpaceSaving sketch(8, 5);
  auto restored = DeserializeUnbiased(Serialize(sketch));
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(restored->size(), 0u);
  EXPECT_EQ(restored->TotalCount(), 0);
}

TEST(SerializationTest, RestoredSketchAcceptsUpdatesAndMerges) {
  // The map-reduce workflow: mappers serialize, the reducer deserializes
  // and merges.
  UnbiasedSpaceSaving mapper1(16, 6), mapper2(16, 7);
  for (int i = 0; i < 2000; ++i) {
    mapper1.Update(i % 30);
    mapper2.Update(100 + (i % 50));
  }
  auto r1 = DeserializeUnbiased(Serialize(mapper1), 8);
  auto r2 = DeserializeUnbiased(Serialize(mapper2), 9);
  ASSERT_TRUE(r1.has_value() && r2.has_value());
  UnbiasedSpaceSaving merged = Merge(*r1, *r2, 16, 10);
  EXPECT_EQ(merged.TotalCount(), 4000);
  merged.Update(999);
  EXPECT_EQ(merged.TotalCount(), 4001);
}

TEST(SerializationTest, RejectsWrongKind) {
  UnbiasedSpaceSaving uss(8, 11);
  uss.Update(1);
  std::string bytes = Serialize(uss);
  EXPECT_FALSE(DeserializeWeighted(bytes).has_value());
  EXPECT_TRUE(DeserializeUnbiased(bytes).has_value());

  WeightedSpaceSaving wss(8, 11);
  wss.Update(1, 2.5);
  std::string wss_bytes = Serialize(wss);
  EXPECT_FALSE(DeserializeUnbiased(wss_bytes).has_value());
  EXPECT_TRUE(DeserializeWeighted(wss_bytes).has_value());
}

TEST(SerializationTest, RejectsImplausiblyLargeCapacity) {
  // A hostile header must not force a multi-gigabyte allocation before
  // payload validation; capacities beyond the documented cap are
  // rejected outright.
  UnbiasedSpaceSaving uss(8, 16);
  uss.Update(1);
  std::string bytes = SerializeV1(uss);
  uint64_t evil_capacity = 0xFFFFFFF0ULL;  // v1 capacity field at offset 8
  std::memcpy(&bytes[8], &evil_capacity, sizeof(evil_capacity));
  EXPECT_FALSE(DeserializeUnbiased(bytes).has_value());
}

TEST(SerializationTest, RejectsTruncatedInput) {
  UnbiasedSpaceSaving sketch(8, 12);
  for (int i = 0; i < 100; ++i) sketch.Update(i % 10);
  std::string bytes = Serialize(sketch);
  for (size_t cut :
       {size_t{0}, size_t{1}, size_t{4}, size_t{10}, bytes.size() - 1}) {
    EXPECT_FALSE(
        DeserializeUnbiased(std::string_view(bytes.data(), cut)).has_value())
        << "cut at " << cut;
  }
}

TEST(SerializationTest, RejectsTrailingGarbage) {
  UnbiasedSpaceSaving sketch(8, 13);
  sketch.Update(5);
  std::string bytes = Serialize(sketch);
  bytes.push_back('x');
  EXPECT_FALSE(DeserializeUnbiased(bytes).has_value());
}

TEST(SerializationTest, RejectsBadMagicAndCorruptHeader) {
  UnbiasedSpaceSaving sketch(8, 14);
  sketch.Update(5);
  for (std::string bytes : {Serialize(sketch), SerializeV1(sketch)}) {
    std::string bad_magic = bytes;
    bad_magic[0] ^= 0xFF;
    EXPECT_FALSE(DeserializeUnbiased(bad_magic).has_value());

    std::string bad_version = bytes;
    bad_version[5] = 99;  // version byte outside the supported range
    EXPECT_FALSE(DeserializeUnbiased(bad_version).has_value());
  }

  // Corrupt the v1 entry count to exceed capacity (u32 at offset 16).
  std::string bad_count = SerializeV1(sketch);
  bad_count[16] = 'z';
  EXPECT_FALSE(DeserializeUnbiased(bad_count).has_value());

  // The v2 equivalent: single-byte varints, capacity 8 at offset 8 and
  // entry count at offset 9 — claim 9 entries in an 8-bin sketch.
  std::string bad_count2 = Serialize(sketch);
  ASSERT_EQ(bad_count2[8], 8);
  bad_count2[9] = 9;
  EXPECT_FALSE(DeserializeUnbiased(bad_count2).has_value());
}

TEST(SerializationTest, RejectsNegativeCountsAndDuplicates) {
  // Hand-craft: header for kUnbiased, capacity 4, 2 entries.
  auto craft = [](int64_t count2, uint64_t item2) {
    std::string out;
    uint32_t magic = 0x44534B31;
    uint8_t kind = 1, version = 1;
    uint16_t reserved = 0;
    uint64_t capacity = 4;
    uint32_t n = 2;
    out.append(reinterpret_cast<char*>(&magic), 4);
    out.append(reinterpret_cast<char*>(&kind), 1);
    out.append(reinterpret_cast<char*>(&version), 1);
    out.append(reinterpret_cast<char*>(&reserved), 2);
    out.append(reinterpret_cast<char*>(&capacity), 8);
    out.append(reinterpret_cast<char*>(&n), 4);
    uint64_t item1 = 7;
    int64_t count1 = 5;
    out.append(reinterpret_cast<char*>(&item1), 8);
    out.append(reinterpret_cast<char*>(&count1), 8);
    out.append(reinterpret_cast<char*>(&item2), 8);
    out.append(reinterpret_cast<char*>(&count2), 8);
    return out;
  };
  EXPECT_TRUE(DeserializeUnbiased(craft(3, 8)).has_value());
  EXPECT_FALSE(DeserializeUnbiased(craft(-3, 8)).has_value());  // negative
  EXPECT_FALSE(DeserializeUnbiased(craft(3, 7)).has_value());   // duplicate
}

// Per-version wire-size budgets. The v1 layout is pinned exactly (part
// of the legacy decode contract); v2 must beat it by at least 30% on a
// Zipf(1.1) stream at 2^16 capacity (the varint/delta layout's target
// workload: small item ids, long near-minimum count tail).
TEST(SerializationTest, WireSizeBudgets) {
  UnbiasedSpaceSaving small(100, 15);
  Rng rng(402);
  for (int i = 0; i < 100000; ++i) small.Update(rng.NextBounded(10000));
  // v1: header (20B) + 100 entries x 16B, byte-exact.
  EXPECT_EQ(SerializeV1(small).size(), 20u + 100u * 16u);
  // v2 never exceeds the v1 footprint, even on this uniform stream.
  EXPECT_LE(Serialize(small).size(), SerializeV1(small).size());

  const size_t capacity = size_t{1} << 16;
  UnbiasedSpaceSaving sketch(capacity, 16);
  std::vector<int64_t> counts =
      ZipfCounts(2 * capacity, 1.1, /*max_count=*/1 << 18);
  std::vector<uint64_t> stream = SortedStream(counts, /*ascending=*/false);
  sketch.UpdateBatch(Span<const uint64_t>(stream.data(), stream.size()));
  ASSERT_EQ(sketch.size(), capacity);  // full sketch: worst case for v2

  const std::string v1 = SerializeV1(sketch);
  const std::string v2 = Serialize(sketch);
  EXPECT_EQ(v1.size(), 20u + capacity * 16u);
  EXPECT_LE(v2.size(), (v1.size() * 7) / 10)
      << "v2 bytes/entry: "
      << static_cast<double>(v2.size()) / static_cast<double>(capacity);
}

TEST(SerializationTest, V1BlobsStillDecode) {
  // Cross-version compatibility: the v1 encoding decodes into the same
  // state the v2 round trip produces (wire_compat_test decodes the
  // checked-in v1 goldens of both kinds).
  UnbiasedSpaceSaving uss(32, 21);
  Rng rng(406);
  for (int i = 0; i < 5000; ++i) uss.Update(rng.NextBounded(200));
  auto from_v1 = DeserializeUnbiased(SerializeV1(uss), 2);
  ASSERT_TRUE(from_v1.has_value());
  EXPECT_EQ(Canonical(from_v1->Entries()), Canonical(uss.Entries()));
  EXPECT_EQ(from_v1->TotalCount(), uss.TotalCount());
}

TEST(SerializationTest, DescribeWireClassifiesBothVersions) {
  UnbiasedSpaceSaving uss(8, 22);
  uss.Update(1);
  auto v2 = wire::DescribeWire(Serialize(uss));
  ASSERT_TRUE(v2.has_value());
  EXPECT_EQ(v2->version, wire::kVersionCurrent);
  EXPECT_STREQ(v2->kind_name, "unbiased_space_saving");

  auto v1 = wire::DescribeWire(SerializeV1(uss));
  ASSERT_TRUE(v1.has_value());
  EXPECT_EQ(v1->version, wire::kVersionLegacy);
  EXPECT_EQ(v1->kind, v2->kind);

  WeightedSpaceSaving wss(4, 22);
  auto wss_info = wire::DescribeWire(Serialize(wss));
  ASSERT_TRUE(wss_info.has_value());
  EXPECT_STREQ(wss_info->kind_name, "weighted_space_saving");

  EXPECT_FALSE(wire::DescribeWire("not a sketch").has_value());
}

}  // namespace
}  // namespace dsketch
