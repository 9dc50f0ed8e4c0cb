// Cross-version wire compatibility against the checked-in golden
// fixtures (tests/golden/): the legacy Unbiased encoder still produces
// its golden bytes byte-for-byte, every golden decodes into the same
// state as its reference recipe, and the v2 round trip of both v1 kinds
// preserves the downstream estimates bit-exactly while never exceeding
// the v1 footprint. DSKETCH_GOLDEN_DIR is injected by
// tests/CMakeLists.txt.

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "wire/frozen.h"
#include "wire_golden_common.h"

namespace dsketch {
namespace {

using golden::Canonical;
using golden::ReadFixture;

TEST(WireCompatTest, LegacyEncoderStillProducesGoldenBytes) {
  EXPECT_EQ(SerializeV1(golden::Unbiased()), ReadFixture("v1_unbiased.bin"));
}

TEST(WireCompatTest, GoldenV1BlobsDecodeIntoReferenceState) {
  auto uss = DeserializeUnbiased(ReadFixture("v1_unbiased.bin"), 2);
  ASSERT_TRUE(uss.has_value());
  UnbiasedSpaceSaving uss_ref = golden::Unbiased();
  EXPECT_EQ(uss->TotalCount(), uss_ref.TotalCount());
  EXPECT_EQ(Canonical(uss->Entries()), Canonical(uss_ref.Entries()));

  auto wss = DeserializeWeighted(ReadFixture("v1_weighted.bin"));
  ASSERT_TRUE(wss.has_value());
  WeightedSpaceSaving wss_ref = golden::Weighted();
  EXPECT_EQ(wss->size(), wss_ref.size());
  for (const WeightedEntry& e : wss_ref.Entries()) {
    EXPECT_DOUBLE_EQ(wss->EstimateWeight(e.item), e.weight);
  }
}

TEST(WireCompatTest, V2RoundTripMatchesGoldenState) {
  // The v2 encoding of each reference sketch restores bit-exactly the
  // same estimates the v1 golden carries — the two versions describe
  // identical states.
  UnbiasedSpaceSaving uss_ref = golden::Unbiased();
  auto uss = DeserializeUnbiased(Serialize(uss_ref), 2);
  ASSERT_TRUE(uss.has_value());
  EXPECT_EQ(Canonical(uss->Entries()), Canonical(uss_ref.Entries()));

  WeightedSpaceSaving wss_ref = golden::Weighted();
  auto wss = DeserializeWeighted(Serialize(wss_ref));
  ASSERT_TRUE(wss.has_value());
  for (const WeightedEntry& e : wss_ref.Entries()) {
    EXPECT_DOUBLE_EQ(wss->EstimateWeight(e.item), e.weight);
  }
}

TEST(WireCompatTest, V2NeverExceedsV1Footprint) {
  EXPECT_LE(Serialize(golden::Unbiased()).size(),
            ReadFixture("v1_unbiased.bin").size());
  EXPECT_LE(Serialize(golden::Weighted()).size(),
            ReadFixture("v1_weighted.bin").size());
}

TEST(WireCompatTest, GoldenBlobsClassifyAsLegacyVersion) {
  for (const char* name : golden::kFixtureNames) {
    auto info = wire::DescribeWire(ReadFixture(name));
    ASSERT_TRUE(info.has_value()) << name;
    EXPECT_EQ(info->version, wire::kVersionLegacy) << name;
  }
}

TEST(WireCompatTest, WindowedGoldenPinsCurrentEncoderBytes) {
  // The windowed ring kind is v2-only, so its golden pins the current
  // encoder: bytes must stay byte-for-byte stable, classify as kind 7,
  // and decode into the reference ring state.
  const std::string bytes = ReadFixture(golden::kWindowedFixtureName);
  EXPECT_EQ(SerializeWindowed(golden::Windowed()), bytes);

  auto info = wire::DescribeWire(bytes);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->kind, kWireKindWindowed);
  EXPECT_EQ(info->version, wire::kVersionCurrent);

  auto restored = DeserializeWindowed(bytes, 1007);
  ASSERT_TRUE(restored.has_value());
  WindowedSpaceSaving ref = golden::Windowed();
  EXPECT_EQ(restored->CurrentEpoch(), ref.CurrentEpoch());
  EXPECT_EQ(restored->TotalRows(), ref.TotalRows());
  ASSERT_EQ(restored->slots().size(), ref.slots().size());
  for (size_t i = 0; i < ref.slots().size(); ++i) {
    EXPECT_EQ(restored->slots()[i].epoch, ref.slots()[i].epoch);
    EXPECT_EQ(Canonical(restored->slots()[i].sketch.Entries()),
              Canonical(ref.slots()[i].sketch.Entries()));
  }
  const double ref_total = ref.DecayedClosedView().TotalWeight();
  EXPECT_NEAR(restored->DecayedClosedView().TotalWeight(), ref_total,
              ref_total * 1e-12);
}

TEST(WireCompatTest, BackwardAgedWindowedGoldenStillDecodes) {
  // Rings encoded while the accumulator was aged backwards carry the
  // same kind-7 layout: masses as of the open epoch. They restore into
  // the same ring, with the accumulator's decayed total unchanged.
  const std::string bytes =
      ReadFixture(golden::kBackwardWindowedFixtureName);
  auto restored = DeserializeWindowed(bytes, 1007);
  ASSERT_TRUE(restored.has_value());
  WindowedSpaceSaving ref = golden::Windowed();
  EXPECT_EQ(restored->CurrentEpoch(), ref.CurrentEpoch());
  EXPECT_EQ(restored->TotalRows(), ref.TotalRows());
  ASSERT_EQ(restored->slots().size(), ref.slots().size());
  for (size_t i = 0; i < ref.slots().size(); ++i) {
    EXPECT_EQ(Canonical(restored->slots()[i].sketch.Entries()),
              Canonical(ref.slots()[i].sketch.Entries()));
  }
  const double ref_total = ref.DecayedClosedView().TotalWeight();
  EXPECT_NEAR(restored->DecayedClosedView().TotalWeight(), ref_total,
              ref_total * 1e-12);
}

TEST(WireCompatTest, FrozenGoldenPinsCurrentImageBytes) {
  // The frozen image is v2-only and deterministic down to its padding
  // bytes, so the golden pins the entire mmap'd layout: header field
  // order, section offsets, canonical entry order, and the hash
  // function behind the slot assignment. Any drift breaks every
  // mmap'd replica in the field — regenerate only deliberately.
  const std::string bytes = ReadFixture(golden::kFrozenFixtureName);
  EXPECT_EQ(SerializeFrozen(golden::Unbiased()), bytes);

  auto info = wire::DescribeWire(bytes);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->kind, wire::kKindFrozenUnbiased);
  EXPECT_EQ(info->version, wire::kVersionCurrent);

  // The golden image thaws into the reference sketch's exact state —
  // and DeserializeUnbiased reaches the same result via its envelope
  // dispatch.
  auto thawed = ThawFrozen(bytes, 1001);
  ASSERT_TRUE(thawed.has_value());
  UnbiasedSpaceSaving ref = golden::Unbiased();
  EXPECT_EQ(thawed->TotalCount(), ref.TotalCount());
  EXPECT_EQ(Canonical(thawed->Entries()), Canonical(ref.Entries()));
  auto dispatched = DeserializeUnbiased(bytes, 1001);
  ASSERT_TRUE(dispatched.has_value());
  EXPECT_EQ(Canonical(dispatched->Entries()), Canonical(ref.Entries()));

  // Zero-decode point lookups off the golden image agree with the
  // reference sketch for every tracked item.
  auto view = wire::FrozenView::Vet(bytes);
  ASSERT_TRUE(view.has_value());
  for (const SketchEntry& e : ref.Entries()) {
    EXPECT_EQ(view->EstimateCount(e.item), e.count) << e.item;
  }
}

}  // namespace
}  // namespace dsketch
