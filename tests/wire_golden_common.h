// Deterministic reference sketches behind the checked-in golden
// fixtures in tests/golden/. The generator (wire_golden_gen.cc) encodes
// the ones that still have a writer (SerializeV1 for the legacy
// Unbiased kind; the current encoders for the v2-only windowed ring and
// frozen image) and writes the .bin files. v1_weighted.bin has no
// writer left: its bytes are frozen, and Weighted() is the recipe they
// decode into. wire_compat_test rebuilds the same sketches and asserts
// (a) the encoders that remain still produce the golden bytes
// byte-for-byte and (b) every golden decodes into the same state. Never
// change these recipes without regenerating the fixtures — they pin
// the wire contract.

#ifndef DSKETCH_TESTS_WIRE_GOLDEN_COMMON_H_
#define DSKETCH_TESTS_WIRE_GOLDEN_COMMON_H_

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#ifdef DSKETCH_GOLDEN_DIR
#include <gtest/gtest.h>
#endif

#include "core/serialization.h"
#include "util/random.h"
#include "util/span.h"
#include "window/window_wire.h"

namespace dsketch {
namespace golden {

/// Canonical ordering for entry comparison across serialization tests:
/// ties in count are ordered by item, which the wire formats do not (and
/// need not) preserve.
inline std::vector<SketchEntry> Canonical(std::vector<SketchEntry> entries) {
  std::sort(entries.begin(), entries.end(),
            [](const SketchEntry& a, const SketchEntry& b) {
              if (a.count != b.count) return a.count > b.count;
              return a.item < b.item;
            });
  return entries;
}

inline UnbiasedSpaceSaving Unbiased() {
  UnbiasedSpaceSaving sketch(32, 1001);
  Rng rng(2001);
  for (int i = 0; i < 5000; ++i) sketch.Update(rng.NextBounded(200));
  return sketch;
}

inline WeightedSpaceSaving Weighted() {
  WeightedSpaceSaving sketch(8, 1003);
  Rng rng(2003);
  for (int i = 0; i < 2000; ++i) {
    sketch.Update(rng.NextBounded(50), 0.25 + rng.NextDouble());
  }
  return sketch;
}

inline WindowedSpaceSaving Windowed() {
  WindowedSketchOptions opt;
  opt.window_epochs = 4;
  opt.epoch_capacity = 16;
  opt.merged_capacity = 32;
  opt.half_life_epochs = 2.0;
  opt.seed = 1007;
  WindowedSpaceSaving sketch(opt);
  Rng rng(2007);
  for (uint64_t e = 0; e < 6; ++e) {
    std::vector<uint64_t> rows;
    for (int i = 0; i < 600; ++i) {
      rows.push_back(e * 1000 + rng.NextBounded(80));
    }
    sketch.UpdateBatch(Span<const uint64_t>(rows.data(), rows.size()));
    if (e < 5) sketch.Advance();
  }
  return sketch;
}

#ifdef DSKETCH_GOLDEN_DIR
/// Reads a checked-in fixture. tests/CMakeLists.txt injects
/// DSKETCH_GOLDEN_DIR into the gtest suites that read the goldens.
inline std::string ReadFixture(const char* name) {
  const std::string path = std::string(DSKETCH_GOLDEN_DIR) + "/" + name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing fixture " << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}
#endif

/// File names of the v1 fixtures: the Unbiased() and Weighted() states.
inline constexpr const char* kFixtureNames[] = {
    "v1_unbiased.bin",
    "v1_weighted.bin",
};

/// The v2-only windowed-ring fixture (kind 7 was born on wire v2, so
/// its golden pins the *current* encoder's bytes).
inline constexpr const char* kWindowedFixtureName = "v2_windowed_forward.bin";

/// The Windowed() ring as encoded when the decayed accumulator was aged
/// backwards each epoch: same kind-7 layout, different reduction
/// history. Decode-only — no writer produces these bytes any more.
inline constexpr const char* kBackwardWindowedFixtureName = "v2_windowed.bin";

/// The frozen-image fixture (kind 8). Freezing is deterministic down to
/// the padding bytes, so this golden pins the entire mmap'd layout:
/// header field order, section offsets/alignment, canonical entry
/// order, and the open-addressed index's slot assignment (i.e. the
/// FrozenHash function itself).
inline constexpr const char* kFrozenFixtureName = "frozen_unbiased.bin";

}  // namespace golden
}  // namespace dsketch

#endif  // DSKETCH_TESTS_WIRE_GOLDEN_COMMON_H_
