// The frozen sketch format (wire kind 8): an on-disk image that IS the
// query-ready layout, so "deserialization" is O(1) header/bounds vetting
// instead of an O(n) varint parse.
//
// Image layout (all fields little-endian; offsets relative to byte 0 of
// the image):
//
//   [0, 8)    shared wire envelope (codec.h): magic "DSK1", kind = 8,
//             version = 2, reserved = 0
//   [8, 88)   frozen header: ten fixed-width u64 fields, in order
//               image_bytes     total image size; must equal the buffer
//               capacity        sketch bins m (1 .. 2^22)
//               entry_count     occupied bins n (<= capacity)
//               min_count       MinCount() of the frozen sketch (>= 0)
//               total_count     TotalCount() of the frozen sketch (>= 0)
//               entries_offset  -> entry section, 64-byte aligned
//               entries_bytes   == 16 * entry_count
//               index_offset    -> index section, 64-byte aligned
//               index_bytes     == 4 * index_slots
//               index_slots     == FrozenIndexSlots(entry_count)
//   entries   entry_count * 16 B records [u64 item][i64 count], sorted
//             canonically: count descending, ties by ascending item
//             (exactly the order a thawed sketch's Entries() reports, so
//             answers off the image are bit-identical to the thawed path)
//   index     open-addressed item -> entry-index hash table: index_slots
//             (a power of two) u32 slots, empty = 0xFFFFFFFF, probe start
//             FrozenHash(item) & (index_slots - 1), linear probing
//   padding   zero bytes pad each section start and the image end to a
//             64-byte multiple (cache-line-aligned sections when the
//             image is mapped at a page boundary)
//
// min_count / total_count are the bin-range metadata unbiased SUM needs
// (paper eq. 5 variance = Nmin^2 * max(1, C_S)); the descending entry
// order is what TOPK needs. Nothing else of the sketch travels. This
// layer holds no estimator: SUM, GROUPBY and TOPK walk the entries with
// FrozenView::ForEachEntry through the same code that walks a live
// sketch (core/subset_sum.h, query/engine.cc), so there is no second
// copy of a query loop to keep in step.
//
// Trust model: FrozenView::Vet performs strict O(1) *structural*
// validation — envelope, exact image size, section alignment, bounds,
// and overlap — and rejects anything inconsistent. It deliberately does
// NOT read the O(n) payload, so a vetted view may still carry hostile
// *content* (lying counts, garbage index slots). Every query accessor is
// therefore bounds-checked against the vetted structure: probes are
// masked and step-capped, entry reads are bounded by entry_count, and no
// code path reads outside [0, image_bytes). Deep content validation
// happens only on thaw (core/serialization.cc), which is the O(n) path
// anyway.
//
// This layer is below core on purpose (wire must not include core), so
// it speaks its own POD FrozenEntry; core/serialization.cc static_asserts
// it is layout-identical to SketchEntry and bridges the two.

#ifndef DSKETCH_WIRE_FROZEN_H_
#define DSKETCH_WIRE_FROZEN_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <string_view>

#include "wire/codec.h"

namespace dsketch {
namespace wire {

/// The frozen unbiased sketch wire kind (registered in codec.cc; v2-only
/// like the windowed ring — the format was born after the varint era).
inline constexpr uint8_t kKindFrozenUnbiased = 8;

/// Section alignment: every section offset and the image size are
/// multiples of this, so an image mapped at a page boundary has
/// cache-line-aligned sections.
inline constexpr size_t kFrozenAlign = 64;

/// Bytes per entry record ([u64 item][i64 count]).
inline constexpr size_t kFrozenEntryBytes = 16;

/// Bytes per index slot (u32 entry index).
inline constexpr size_t kFrozenSlotBytes = 4;

/// Empty-slot sentinel in the index section.
inline constexpr uint32_t kFrozenEmptySlot = 0xFFFFFFFFu;

/// Largest capacity a frozen image may claim. Mirrors the core codecs'
/// kMaxSerializableCapacity (serialization.cc static_asserts equality);
/// duplicated here because wire cannot include core.
inline constexpr uint64_t kFrozenMaxCapacity = uint64_t{1} << 22;

/// End of the fixed header (envelope + ten u64 fields); the smallest
/// prefix Vet must see before trusting any offset.
inline constexpr size_t kFrozenHeaderEnd = kEnvelopeBytes + 10 * 8;

/// One frozen entry record. Layout-identical to core's SketchEntry
/// (static_asserted at the core/wire seam) but owned by this layer so
/// the wire stays below core in the dependency DAG.
struct FrozenEntry {
  uint64_t item = 0;
  int64_t count = 0;
};

/// The index hash — part of the on-disk format contract, so it is
/// spelled out here rather than shared with util/flat_map.h: images are
/// read by builds (and foreign-language bindings) that must agree on the
/// probe sequence forever. It is the murmur3 finalizer.
inline uint64_t FrozenHash(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

/// Index slots for `entry_count` entries: the smallest power of two
/// >= max(8, 2 * entry_count) (load factor <= 0.5).
size_t FrozenIndexSlots(size_t entry_count);

/// Total image bytes for `entry_count` entries (header + aligned
/// sections + final padding). This is the size FreezeInto writes and the
/// size a valid image of that entry count must have.
size_t FrozenImageBytes(size_t entry_count);

/// Writes a frozen image into the caller's buffer (the hipermap shape:
/// size with FrozenImageBytes, then compile into your own storage — an
/// arena, a file mapping, a string). `entries` must be in canonical
/// order (count descending, ties ascending item) with positive counts
/// and distinct items; `capacity` in [max(1, entry_count), 2^22];
/// min_count/total_count >= 0. Returns the bytes written
/// (== FrozenImageBytes(entry_count)), or 0 — writing nothing — when the
/// buffer is too small or any argument breaks those rules (duplicate
/// items are caught during the index build). Never aborts: the C ABI
/// calls this with caller-supplied data.
size_t FreezeInto(const FrozenEntry* entries, size_t entry_count,
                  uint64_t capacity, int64_t min_count, int64_t total_count,
                  void* out, size_t out_bytes);

/// Validated zero-copy view over a frozen image. Borrow semantics: the
/// view holds a pointer into the caller's bytes (string, file mapping),
/// which must outlive it. Copyable (it is just a vetted pointer + cached
/// header fields).
class FrozenView {
 public:
  /// O(1) structural vetting (see file comment). Returns nullopt on
  /// anything that is not a byte-exact-sized, well-aligned,
  /// non-overlapping frozen image; never reads outside `bytes`.
  static std::optional<FrozenView> Vet(std::string_view bytes);

  uint64_t capacity() const { return capacity_; }
  uint64_t entry_count() const { return entry_count_; }
  int64_t min_count() const { return min_count_; }
  int64_t total_count() const { return total_count_; }

  /// Entry `i` (caller keeps i < entry_count(); reads are memcpy loads,
  /// so no base-pointer alignment is required of the backing bytes).
  FrozenEntry entry(size_t i) const {
    FrozenEntry e;
    const unsigned char* p = base_ + entries_offset_ + i * kFrozenEntryBytes;
    std::memcpy(&e.item, p, 8);
    std::memcpy(&e.count, p + 8, 8);
    return e;
  }

  /// Calls `visit(item, count)` on each entry in image order (the
  /// thawed sketch's Entries() order) and stops as soon as `visit`
  /// returns false. Core's subset-sum kernel (core/subset_sum.h
  /// SubsetSumOver) and the query engine's group-by walk the image
  /// through this, so frozen answers come out of the same loop as thawed
  /// ones and are bit-identical to them.
  template <typename Visit>
  void ForEachEntry(Visit&& visit) const {
    const size_t n = static_cast<size_t>(entry_count_);
    for (size_t i = 0; i < n; ++i) {
      const FrozenEntry e = entry(i);
      if (!visit(e.item, e.count)) return;
    }
  }

  /// Point estimate via the hash index: the entry count when `item` is
  /// tracked, 0 otherwise (matching the thawed EstimateCount contract on
  /// well-formed images). Probes are masked and capped at index_slots
  /// steps, and lying slot values are bounds-checked, so hostile index
  /// content degrades to a wrong answer — never an out-of-bounds read or
  /// an unterminated loop.
  int64_t EstimateCount(uint64_t item) const;

  /// The whole vetted image (e.g. to copy it onward as snapshot bytes).
  std::string_view bytes() const {
    return std::string_view(reinterpret_cast<const char*>(base_),
                            image_bytes_);
  }

 private:
  FrozenView() = default;

  uint32_t slot(size_t i) const {
    uint32_t v;
    std::memcpy(&v, base_ + index_offset_ + i * kFrozenSlotBytes, 4);
    return v;
  }

  const unsigned char* base_ = nullptr;
  size_t image_bytes_ = 0;
  uint64_t capacity_ = 0;
  uint64_t entry_count_ = 0;
  int64_t min_count_ = 0;
  int64_t total_count_ = 0;
  size_t entries_offset_ = 0;
  size_t index_offset_ = 0;
  size_t index_slots_ = 0;
};

}  // namespace wire
}  // namespace dsketch

#endif  // DSKETCH_WIRE_FROZEN_H_
