// Adversarial decoder hardening across every sketch kind and both wire
// versions: truncation at every byte boundary, trailing garbage, an
// exhaustive single-bit-flip sweep, and hand-crafted hostile headers
// (huge capacities, varint overflow, delta underflow, retired kinds) —
// plus the frozen image (kind 8), whose offset-based layout gets its own
// hostile-header sweep (overlapping sections, out-of-bounds/wrapping
// offsets, misaligned sections, lying counts) and a content-lie sweep
// (Vet accepts, queries must stay in bounds, deep thaw must reject).
// The contract under attack: Deserialize* returns nullopt on anything it
// rejects and never aborts, over-reads, or force-allocates — CI runs
// this suite under asan+ubsan, where any violation is fatal.

#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/serialization.h"
#include "core/subset_sum.h"
#include "util/random.h"
#include "util/span.h"
#include "window/window_wire.h"
#include "wire/codec.h"
#include "wire/frozen.h"
#include "wire/varint.h"
#include "wire_golden_common.h"

namespace dsketch {
namespace {

// Kind bytes, part of the wire contract (see wire/codec.cc).
constexpr uint8_t kKindUnbiased = 1;
constexpr uint8_t kKindWeighted = 3;
// kWireKindWindowed (7) comes from window/window_wire.h.

struct Blob {
  std::string label;
  std::string bytes;
};

// Small-but-nonempty sketches of every kind, encoded at both versions.
std::vector<Blob> AllBlobs() {
  std::vector<Blob> blobs;
  auto add = [&](const std::string& label, std::string v2, std::string v1) {
    blobs.push_back({label + "/v2", std::move(v2)});
    blobs.push_back({label + "/v1", std::move(v1)});
  };

  UnbiasedSpaceSaving uss(8, 11);
  Rng rng(500);
  for (int i = 0; i < 400; ++i) uss.Update(rng.NextBounded(30));
  add("unbiased", Serialize(uss), SerializeV1(uss));

  WeightedSpaceSaving wss(8, 13);
  for (int i = 0; i < 300; ++i) {
    wss.Update(rng.NextBounded(30), 0.5 + rng.NextDouble());
  }
  // The v1 weighted encoder is gone; the checked-in golden seeds that
  // kind's v1 sweeps.
  add("weighted", Serialize(wss), golden::ReadFixture("v1_weighted.bin"));

  // The windowed ring kind is v2-only, so it contributes one blob (with
  // a populated decayed accumulator so every payload section is swept).
  WindowedSketchOptions wopt;
  wopt.window_epochs = 3;
  wopt.epoch_capacity = 8;
  wopt.merged_capacity = 16;
  wopt.half_life_epochs = 2.0;
  wopt.seed = 16;
  WindowedSpaceSaving win(wopt);
  for (uint64_t e = 0; e < 4; ++e) {
    std::vector<uint64_t> rows;
    for (int i = 0; i < 150; ++i) rows.push_back(rng.NextBounded(25));
    win.UpdateBatch(Span<const uint64_t>(rows.data(), rows.size()));
    if (e < 3) win.Advance();
  }
  blobs.push_back({"windowed/v2", SerializeWindowed(win)});

  // The frozen image (kind 8) is v2-only too; DeserializeUnbiased
  // dispatches on the envelope, so it rides the same sweeps.
  blobs.push_back({"frozen/v2", SerializeFrozen(uss)});

  return blobs;
}

// Runs every deserializer over the bytes; returns how many accepted.
// The hard requirement is simply surviving the call — rejection paths
// must bail with nullopt, not abort or over-read.
size_t DecodeAll(std::string_view bytes) {
  size_t accepted = 0;
  if (DeserializeUnbiased(bytes, 3).has_value()) ++accepted;
  if (DeserializeWeighted(bytes, 3).has_value()) ++accepted;
  if (DeserializeWindowed(bytes, 3).has_value()) ++accepted;
  return accepted;
}

TEST(WireAdversarialTest, IntactBlobsDecodeExactlyOnce) {
  for (const Blob& blob : AllBlobs()) {
    EXPECT_EQ(DecodeAll(blob.bytes), 1u) << blob.label;
  }
}

TEST(WireAdversarialTest, EveryTruncationIsRejected) {
  // Entry counts travel before the payload, so no strict prefix of a
  // valid blob can itself be valid.
  for (const Blob& blob : AllBlobs()) {
    for (size_t cut = 0; cut < blob.bytes.size(); ++cut) {
      EXPECT_EQ(DecodeAll(std::string_view(blob.bytes.data(), cut)), 0u)
          << blob.label << " cut at " << cut;
    }
  }
}

TEST(WireAdversarialTest, TrailingGarbageIsRejected) {
  for (const Blob& blob : AllBlobs()) {
    std::string padded = blob.bytes;
    padded.push_back('\0');
    EXPECT_EQ(DecodeAll(padded), 0u) << blob.label;
    padded.back() = '\x7f';
    EXPECT_EQ(DecodeAll(padded), 0u) << blob.label;
  }
}

TEST(WireAdversarialTest, SingleBitFlipsNeverAbort) {
  // A flipped bit may still decode (e.g. inside an item label); the
  // contract is that every outcome is a clean nullopt-or-value with no
  // aborts, out-of-bounds reads, or hostile allocations.
  size_t survived = 0;
  for (const Blob& blob : AllBlobs()) {
    std::string tampered = blob.bytes;
    for (size_t i = 0; i < tampered.size(); ++i) {
      for (int bit = 0; bit < 8; ++bit) {
        tampered[i] = static_cast<char>(tampered[i] ^ (1 << bit));
        survived += DecodeAll(tampered);
        tampered[i] = blob.bytes[i];  // restore
      }
    }
  }
  // Some flips (item-label bits) legitimately still decode; the count
  // only has to be finite and the loop alive to get here.
  SUCCEED() << survived << " tampered blobs still decoded cleanly";
}

// ---------------------------------------------------------------------
// Hand-crafted hostile v2 payloads.
// ---------------------------------------------------------------------

std::string V2Blob(uint8_t kind,
                   const std::function<void(wire::VarintWriter&)>& payload) {
  std::string out;
  wire::WriteEnvelope(out, kind, wire::kVersionCurrent);
  wire::VarintWriter writer(out);
  payload(writer);
  return out;
}

TEST(WireAdversarialTest, HostileCapacityHeadersAreRejected) {
  // Capacity beyond the documented cap.
  std::string over_cap = V2Blob(kKindUnbiased, [](wire::VarintWriter& w) {
    w.PutVarint(kMaxSerializableCapacity + 1);
    w.PutVarint(0);
  });
  EXPECT_EQ(DecodeAll(over_cap), 0u);

  // Zero capacity.
  std::string zero_cap = V2Blob(kKindUnbiased, [](wire::VarintWriter& w) {
    w.PutVarint(0);
    w.PutVarint(0);
  });
  EXPECT_EQ(DecodeAll(zero_cap), 0u);

  // Entry count beyond capacity.
  std::string over_count = V2Blob(kKindUnbiased, [](wire::VarintWriter& w) {
    w.PutVarint(4);
    w.PutVarint(5);
  });
  EXPECT_EQ(DecodeAll(over_count), 0u);

  // A maximal claimed count with a near-empty payload: the byte-budget
  // bound must reject before any large reserve.
  std::string alloc_bomb = V2Blob(kKindUnbiased, [](wire::VarintWriter& w) {
    w.PutVarint(kMaxSerializableCapacity);
    w.PutVarint(kMaxSerializableCapacity);
    w.PutVarint(1);  // one lonely byte where 2^22 entries were claimed
  });
  EXPECT_EQ(DecodeAll(alloc_bomb), 0u);
}

TEST(WireAdversarialTest, VarintOverflowAndDeltaUnderflowAreRejected) {
  // An 11-byte varint (continuation bit never clears within 10 bytes).
  std::string overlong = V2Blob(kKindUnbiased, [](wire::VarintWriter& w) {
    for (int i = 0; i < 11; ++i) w.PutByte(0x80);
  });
  EXPECT_EQ(DecodeAll(overlong), 0u);

  // A first count that exceeds int64.
  std::string count_overflow =
      V2Blob(kKindUnbiased, [](wire::VarintWriter& w) {
        w.PutVarint(4);
        w.PutVarint(1);
        w.PutVarint(7);                    // item
        w.PutVarint(uint64_t{1} << 63);    // count > INT64_MAX
      });
  EXPECT_EQ(DecodeAll(count_overflow), 0u);

  // A delta larger than the running count (would drive counts negative).
  std::string underflow = V2Blob(kKindUnbiased, [](wire::VarintWriter& w) {
    w.PutVarint(4);
    w.PutVarint(2);
    w.PutVarint(7);   // item 0
    w.PutVarint(5);   // first count 5
    w.PutVarint(8);   // item 1
    w.PutVarint(9);   // delta 9 > 5
  });
  EXPECT_EQ(DecodeAll(underflow), 0u);

  // Two near-INT64_MAX counts whose sum would wrap the restored
  // TotalCount (the overflow the bit-flip sweep first caught under
  // ubsan: each count is individually valid, the sum is not).
  std::string total_overflow =
      V2Blob(kKindUnbiased, [](wire::VarintWriter& w) {
        w.PutVarint(4);
        w.PutVarint(2);
        w.PutVarint(7);
        w.PutVarint(static_cast<uint64_t>(INT64_MAX));  // count 1
        w.PutVarint(8);
        w.PutVarint(0);  // delta 0: count 2 also INT64_MAX
      });
  EXPECT_EQ(DecodeAll(total_overflow), 0u);

  // Duplicate labels.
  std::string duplicate = V2Blob(kKindUnbiased, [](wire::VarintWriter& w) {
    w.PutVarint(4);
    w.PutVarint(2);
    w.PutVarint(7);
    w.PutVarint(5);
    w.PutVarint(7);  // same label again
    w.PutVarint(0);
  });
  EXPECT_EQ(DecodeAll(duplicate), 0u);
}

// A weighted blob (kind 3) with one bin per entry of `weights`, at
// wire version `version`.
std::string WeightedBlob(uint8_t version, const std::vector<double>& weights) {
  std::string out;
  wire::WriteEnvelope(out, kKindWeighted, version);
  wire::VarintWriter w(out);
  if (version == 1) {
    w.PutValue(uint64_t{8});
    w.PutValue(static_cast<uint32_t>(weights.size()));
  } else {
    w.PutVarint(8);
    w.PutVarint(weights.size());
  }
  for (size_t i = 0; i < weights.size(); ++i) {
    if (version == 1) {
      w.PutValue(uint64_t{7 + i});
    } else {
      w.PutVarint(7 + i);
    }
    w.PutDouble(weights[i]);
  }
  return out;
}

// A decayed window ring (kind 7) whose accumulator is WeightedBlob(2,
// weights): one empty epoch slot, decay on.
std::string WindowedBlobWithDecayed(const std::vector<double>& weights) {
  const std::string slot = Serialize(UnbiasedSpaceSaving(8, 1));
  const std::string decayed = WeightedBlob(2, weights);
  return V2Blob(kWireKindWindowed, [&](wire::VarintWriter& w) {
    w.PutVarint(4);    // window epochs
    w.PutVarint(8);    // epoch capacity
    w.PutVarint(8);    // merged capacity (the accumulator's)
    w.PutVarint(0);    // rows_per_epoch
    w.PutDouble(2.0);  // half-life: decay on
    w.PutVarint(0);    // rows_in_epoch
    w.PutVarint(0);    // total_rows
    w.PutVarint(1);    // one slot
    w.PutVarint(0);    // its epoch
    w.PutVarint(slot.size());
    for (char c : slot) w.PutByte(static_cast<uint8_t>(c));
    w.PutByte(1);  // has a decayed accumulator
    w.PutVarint(decayed.size());
    for (char c : decayed) w.PutByte(static_cast<uint8_t>(c));
  });
}

// Restored masses must be finite: +inf (or a total that overflows to it)
// would make every estimate and error bar over the sketch infinite.
TEST(WireAdversarialTest, NonFiniteWeightsAreRejected) {
  const double inf = std::numeric_limits<double>::infinity();
  const double max = std::numeric_limits<double>::max();
  // The finite control decodes, so each rejection below is the mass's.
  for (uint8_t version : {uint8_t{1}, uint8_t{2}}) {
    EXPECT_TRUE(DeserializeWeighted(WeightedBlob(version, {1.5, 2.5}), 3))
        << int{version};
    for (const std::vector<double>& bad :
         {std::vector<double>{inf}, {1.5, inf}, {max, max}}) {
      EXPECT_EQ(DecodeAll(WeightedBlob(version, bad)), 0u)
          << int{version} << " " << bad.back();
    }
  }
  EXPECT_TRUE(DeserializeWindowed(WindowedBlobWithDecayed({1.5, 2.5}), 3));
  for (const std::vector<double>& bad :
       {std::vector<double>{inf}, {1.5, inf}, {max, max}}) {
    EXPECT_EQ(DecodeAll(WindowedBlobWithDecayed(bad)), 0u) << bad.back();
  }
}

TEST(WireAdversarialTest, RetiredKindsAreRejected) {
  // Kinds 2, 4, 5 and 6 belonged to retired codecs (deterministic Space
  // Saving, multi-metric, Misra-Gries, CountMin). Their bytes stay
  // reserved and decode as nothing: a valid Unbiased payload relabeled
  // with one of them, at either version, must classify as unknown and be
  // rejected by every decoder.
  UnbiasedSpaceSaving uss(8, 11);
  Rng rng(500);
  for (int i = 0; i < 400; ++i) uss.Update(rng.NextBounded(30));
  for (const std::string& valid : {Serialize(uss), SerializeV1(uss)}) {
    for (uint8_t kind : {2, 4, 5, 6}) {
      std::string retired = valid;
      retired[4] = static_cast<char>(kind);  // envelope kind byte
      EXPECT_FALSE(wire::DescribeWire(retired).has_value())
          << "kind " << int{kind} << " version " << int{retired[5]};
      EXPECT_EQ(DecodeAll(retired), 0u)
          << "kind " << int{kind} << " version " << int{retired[5]};
    }
  }
}

TEST(WireAdversarialTest, HostileWindowRingHeadersAreRejected) {
  // Shared ring prefix up to (and excluding) the slot list:
  // [W][epoch_cap][merged_cap][rows_per_epoch][f64 half_life]
  // [rows_in_epoch][total_rows].
  auto prefix = [](wire::VarintWriter& w, uint64_t window_epochs,
                   uint64_t epoch_cap) {
    w.PutVarint(window_epochs);
    w.PutVarint(epoch_cap);
    w.PutVarint(32);   // merged capacity
    w.PutVarint(0);    // rows_per_epoch
    w.PutDouble(0.0);  // half-life: decay off
    w.PutVarint(0);    // rows_in_epoch
    w.PutVarint(0);    // total_rows
  };

  // Ring length over the cap, and zero.
  for (uint64_t w_epochs : {uint64_t{0}, kMaxWindowEpochs + 1}) {
    std::string bad =
        V2Blob(kWireKindWindowed, [&](wire::VarintWriter& w) {
          prefix(w, w_epochs, 8);
          w.PutVarint(1);
        });
    EXPECT_EQ(DecodeAll(bad), 0u) << w_epochs;
  }

  // A maximal slot-count claim with almost no bytes behind it: the
  // byte-budget bound must reject before any allocation.
  std::string slot_bomb =
      V2Blob(kWireKindWindowed, [&](wire::VarintWriter& w) {
        prefix(w, kMaxWindowEpochs, 8);
        w.PutVarint(kMaxWindowEpochs);  // claimed slots
        w.PutVarint(1);                 // one lonely byte
      });
  EXPECT_EQ(DecodeAll(slot_bomb), 0u);

  // Build a genuine one-slot ring, then corrupt structural fields.
  WindowedSketchOptions opt;
  opt.window_epochs = 2;
  opt.epoch_capacity = 8;
  opt.merged_capacity = 16;
  opt.seed = 5;
  WindowedSpaceSaving ring(opt);
  ring.Update(3);
  const std::string inner = Serialize(ring.slots().back().sketch);

  // Non-ascending slot epochs.
  std::string unsorted =
      V2Blob(kWireKindWindowed, [&](wire::VarintWriter& w) {
        prefix(w, 4, 8);
        w.PutVarint(2);  // two slots
        for (uint64_t epoch : {uint64_t{5}, uint64_t{5}}) {
          w.PutVarint(epoch);
          w.PutVarint(inner.size());
          for (char c : inner) w.PutByte(static_cast<uint8_t>(c));
        }
        w.PutByte(0);  // no decayed accumulator
      });
  EXPECT_EQ(DecodeAll(unsorted), 0u);

  // Slot epochs spanning more than one window (0 and 9 with W = 4).
  std::string wide = V2Blob(kWireKindWindowed, [&](wire::VarintWriter& w) {
    prefix(w, 4, 8);
    w.PutVarint(2);
    for (uint64_t epoch : {uint64_t{0}, uint64_t{9}}) {
      w.PutVarint(epoch);
      w.PutVarint(inner.size());
      for (char c : inner) w.PutByte(static_cast<uint8_t>(c));
    }
    w.PutByte(0);
  });
  EXPECT_EQ(DecodeAll(wide), 0u);

  // Inner blob of the wrong kind (a weighted sketch where an unbiased
  // epoch sketch belongs).
  WeightedSpaceSaving wss(8, 9);
  wss.Update(1, 2.0);
  const std::string wrong_kind = Serialize(wss);
  std::string bad_inner =
      V2Blob(kWireKindWindowed, [&](wire::VarintWriter& w) {
        prefix(w, 4, 8);
        w.PutVarint(1);
        w.PutVarint(0);
        w.PutVarint(wrong_kind.size());
        for (char c : wrong_kind) w.PutByte(static_cast<uint8_t>(c));
        w.PutByte(0);
      });
  EXPECT_EQ(DecodeAll(bad_inner), 0u);

  // Inner capacity disagreeing with the declared ring geometry.
  UnbiasedSpaceSaving mismatched(16, 9);  // ring declares 8 bins
  mismatched.Update(1);
  const std::string wrong_cap = Serialize(mismatched);
  std::string bad_cap =
      V2Blob(kWireKindWindowed, [&](wire::VarintWriter& w) {
        prefix(w, 4, 8);
        w.PutVarint(1);
        w.PutVarint(0);
        w.PutVarint(wrong_cap.size());
        for (char c : wrong_cap) w.PutByte(static_cast<uint8_t>(c));
        w.PutByte(0);
      });
  EXPECT_EQ(DecodeAll(bad_cap), 0u);

  // A decayed accumulator claimed with decay disabled (flag mismatch).
  std::string stray_acc =
      V2Blob(kWireKindWindowed, [&](wire::VarintWriter& w) {
        prefix(w, 4, 8);  // half-life 0: decay off
        w.PutVarint(1);
        w.PutVarint(0);
        w.PutVarint(inner.size());
        for (char c : inner) w.PutByte(static_cast<uint8_t>(c));
        w.PutByte(1);  // claims an accumulator anyway
      });
  EXPECT_EQ(DecodeAll(stray_acc), 0u);
}

// ---------------------------------------------------------------------
// Hostile frozen images (wire kind 8). The layout is offset-based, so
// the attack surface is different from the varint kinds: a hostile
// header can point sections anywhere. FrozenView::Vet is the O(1) gate
// — structural lies must die there, before any offset is trusted —
// while content lies (which Vet deliberately does not read) must never
// turn into out-of-bounds access at query time and must be rejected by
// the deep thaw.
// ---------------------------------------------------------------------

// A full capacity-8 frozen image: 320 bytes — entries at 128 (8 x 16 B),
// the 16-slot index at 256 (see wire/frozen.h for the layout math).
constexpr size_t kFrozenEntriesOffset = 128;
constexpr size_t kFrozenIndexOffset = 256;
constexpr size_t kFrozenTestSlots = 16;

std::string FrozenBlob() {
  UnbiasedSpaceSaving uss(8, 11);
  Rng rng(500);
  for (int i = 0; i < 400; ++i) uss.Update(rng.NextBounded(30));
  return SerializeFrozen(uss);
}

void PatchU64(std::string* image, size_t offset, uint64_t value) {
  for (size_t i = 0; i < 8; ++i) {
    (*image)[offset + i] = static_cast<char>((value >> (8 * i)) & 0xff);
  }
}

void PatchSlot(std::string* image, size_t slot, uint32_t value) {
  std::memcpy(&(*image)[kFrozenIndexOffset + slot * 4], &value, 4);
}

TEST(WireAdversarialTest, FrozenHostileHeadersAreRejected) {
  const std::string good = FrozenBlob();
  ASSERT_EQ(good.size(), 320u);
  ASSERT_TRUE(wire::FrozenView::Vet(good).has_value());

  // Header field byte offsets: 8-byte envelope, then ten u64 fields.
  constexpr size_t kImageBytes = 8, kCapacity = 16, kEntryCount = 24,
                   kMinCount = 32, kTotalCount = 40, kEntriesOffset = 48,
                   kEntriesBytes = 56, kIndexOffset = 64, kIndexBytes = 72,
                   kIndexSlots = 80;
  struct Case {
    const char* label;
    size_t field;
    uint64_t value;
  };
  const Case cases[] = {
      {"lying image_bytes", kImageBytes, 320 + 64},
      {"zero capacity", kCapacity, 0},
      {"huge capacity", kCapacity, kMaxSerializableCapacity + 1},
      {"entry_count > capacity", kEntryCount, 9},
      {"lying entry_count", kEntryCount, 7},
      {"negative min_count", kMinCount, uint64_t{1} << 63},
      {"negative total_count", kTotalCount, uint64_t{1} << 63},
      {"entries overlapping header", kEntriesOffset, 64},
      {"misaligned entries", kEntriesOffset, kFrozenEntriesOffset + 8},
      {"entries at image end", kEntriesOffset, 320},
      {"entries offset wrapping u64", kEntriesOffset, ~uint64_t{0} - 63},
      {"lying entries_bytes", kEntriesBytes, 16 * 7},
      {"index overlapping entries", kIndexOffset, kFrozenEntriesOffset},
      {"misaligned index", kIndexOffset, kFrozenIndexOffset + 4},
      {"index at image end", kIndexOffset, 320},
      {"index offset wrapping u64", kIndexOffset, ~uint64_t{0} - 63},
      {"lying index_bytes", kIndexBytes, 128},
      {"non-canonical index_slots", kIndexSlots, 32},
  };
  for (const Case& c : cases) {
    std::string bad = good;
    PatchU64(&bad, c.field, c.value);
    EXPECT_FALSE(wire::FrozenView::Vet(bad).has_value()) << c.label;
    EXPECT_FALSE(DeserializeUnbiased(bad, 3).has_value()) << c.label;
  }
}

TEST(WireAdversarialTest, FrozenContentLiesAreSafeToQueryAndRejectedByThaw) {
  const std::string good = FrozenBlob();
  ASSERT_EQ(good.size(), 320u);

  // Every index slot claims an out-of-range entry: point queries must
  // give up cleanly (0), never chase the bogus index.
  std::string bad_index = good;
  for (size_t s = 0; s < kFrozenTestSlots; ++s) {
    PatchSlot(&bad_index, s, 0xFFFFFFFE);
  }
  std::optional<wire::FrozenView> view = wire::FrozenView::Vet(bad_index);
  ASSERT_TRUE(view.has_value());  // structurally intact, content is a lie
  for (uint64_t item = 0; item < 64; ++item) {
    EXPECT_EQ(view->EstimateCount(item), 0) << item;
  }
  EXPECT_FALSE(ThawFrozen(bad_index, 3).has_value());

  // Every slot points at entry 0: the probe chain never reaches an
  // empty slot, so only the step cap can end the walk.
  std::string cycle = good;
  for (size_t s = 0; s < kFrozenTestSlots; ++s) PatchSlot(&cycle, s, 0);
  view = wire::FrozenView::Vet(cycle);
  ASSERT_TRUE(view.has_value());
  for (uint64_t item = 0; item < 64; ++item) {
    (void)view->EstimateCount(item);  // must terminate; any answer is fine
  }
  EXPECT_FALSE(ThawFrozen(cycle, 3).has_value());

  // A non-positive count breaks the canonical-order invariant the O(1)
  // vet never reads: scans must stay in bounds, thaw must reject.
  std::string scrambled = good;
  PatchU64(&scrambled, kFrozenEntriesOffset + 8, 0);  // first count := 0
  view = wire::FrozenView::Vet(scrambled);
  ASSERT_TRUE(view.has_value());
  const SubsetSumEstimate sum = SubsetSumOver(
      *view, view->min_count(), [](uint64_t) { return true; });
  (void)sum;  // any value; the traversal itself is what is under test
  EXPECT_FALSE(ThawFrozen(scrambled, 3).has_value());

  // Entries intact but the header total disagrees with their sum.
  std::string lying_total = good;
  PatchU64(&lying_total, 40, 1234567);
  EXPECT_TRUE(wire::FrozenView::Vet(lying_total).has_value());
  EXPECT_FALSE(ThawFrozen(lying_total, 3).has_value());
}

}  // namespace
}  // namespace dsketch
