// Regenerates the checked-in golden fixtures that still have a writer
// (v1_unbiased.bin, v2_windowed_forward.bin, frozen_unbiased.bin; the
// bytes of v1_weighted.bin and v2_windowed.bin are frozen, since their
// writers are gone):
//
//   ./wire_golden_gen <output_dir>
//
// Run only when intentionally re-pinning the wire contract (the
// fixtures exist to catch accidental drift, so regeneration should be a
// deliberate, reviewed act); wire_compat_test verifies the checked-in
// bytes against the recipes in wire_golden_common.h.

#include <cstdio>
#include <fstream>
#include <string>

#include "wire_golden_common.h"

namespace dsketch {
namespace {

int WriteFixture(const std::string& dir, const char* name,
                 const std::string& bytes) {
  const std::string path = dir + "/" + name;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  std::printf("%s: %zu bytes\n", path.c_str(), bytes.size());
  return 0;
}

int Run(const std::string& dir) {
  int failures = 0;
  failures += WriteFixture(dir, "v1_unbiased.bin",
                           SerializeV1(golden::Unbiased()));
  failures += WriteFixture(dir, golden::kWindowedFixtureName,
                           SerializeWindowed(golden::Windowed()));
  failures += WriteFixture(dir, golden::kFrozenFixtureName,
                           SerializeFrozen(golden::Unbiased()));
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace dsketch

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <output_dir>\n", argv[0]);
    return 2;
  }
  return dsketch::Run(argv[1]);
}
