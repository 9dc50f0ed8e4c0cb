#include "core/entry_order.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <numeric>

#include "util/logging.h"

namespace dsketch {

namespace {

// The radix key is 128 bits: the count, biased so negative counts order
// first, above the item, inverted for kLoad. kByItem uses the low half.
struct RadixKey {
  uint64_t item_flip;
  int num_bytes;

  explicit RadixKey(EntryOrder order)
      : item_flip(order == EntryOrder::kLoad ? ~uint64_t{0} : 0),
        num_bytes(order == EntryOrder::kByItem ? 8 : 16) {}

  uint64_t Low(const SketchEntry& e) const { return e.item ^ item_flip; }
  static uint64_t High(const SketchEntry& e) {
    return static_cast<uint64_t>(e.count) ^ (uint64_t{1} << 63);
  }
  // Byte `b` of the key, 0 the least significant.
  unsigned Byte(const SketchEntry& e, int b) const {
    const uint64_t half = b < 8 ? Low(e) : High(e);
    return static_cast<unsigned>(half >> (8 * (b & 7))) & 0xff;
  }
};

struct CanonicalLess {
  bool operator()(const SketchEntry& a, const SketchEntry& b) const {
    return a.count != b.count ? a.count < b.count : a.item < b.item;
  }
};

struct ItemLess {
  bool operator()(const SketchEntry& a, const SketchEntry& b) const {
    return a.item < b.item;
  }
};

struct LoadLess {
  bool operator()(const SketchEntry& a, const SketchEntry& b) const {
    return a.count != b.count ? a.count < b.count : a.item > b.item;
  }
};

template <typename Less>
void Sort(std::vector<SketchEntry>& entries, EntryOrder order, Less less) {
  if (std::is_sorted(entries.begin(), entries.end(), less)) return;
  const size_t n = entries.size();
  DSKETCH_CHECK(n <= UINT32_MAX);

  const RadixKey key(order);
  // Key bits that differ from the first entry's; a byte with none is
  // shared by all keys and needs no pass.
  const uint64_t low0 = key.Low(entries[0]);
  const uint64_t high0 = RadixKey::High(entries[0]);
  uint64_t diff[2] = {0, 0};
  for (const SketchEntry& e : entries) {
    diff[0] |= key.Low(e) ^ low0;
    diff[1] |= RadixKey::High(e) ^ high0;
  }
  int passes[16];
  int num_passes = 0;
  for (int b = 0; b < key.num_bytes; ++b) {
    if ((diff[b / 8] >> (8 * (b & 7))) & 0xff) passes[num_passes++] = b;
  }

  // Only the rows of the passes that run are cleared, so a small input
  // pays for its own passes, not for all sixteen.
  uint32_t hist[16][256];
  for (int p = 0; p < num_passes; ++p) {
    std::fill(std::begin(hist[p]), std::end(hist[p]), 0);
  }
  for (const SketchEntry& e : entries) {
    for (int p = 0; p < num_passes; ++p) ++hist[p][key.Byte(e, passes[p])];
  }
  std::vector<SketchEntry> scratch(n);
  SketchEntry* src = entries.data();
  SketchEntry* dst = scratch.data();
  for (int p = 0; p < num_passes; ++p) {
    uint32_t* h = hist[p];
    uint32_t offset = 0;
    for (int v = 0; v < 256; ++v) {
      const uint32_t c = h[v];
      h[v] = offset;
      offset += c;
    }
    const int shift = 8 * (passes[p] & 7);
    if (passes[p] < 8) {
      for (size_t i = 0; i < n; ++i) {
        dst[h[(key.Low(src[i]) >> shift) & 0xff]++] = src[i];
      }
    } else {
      for (size_t i = 0; i < n; ++i) {
        dst[h[(RadixKey::High(src[i]) >> shift) & 0xff]++] = src[i];
      }
    }
    std::swap(src, dst);
  }
  if (src != entries.data()) entries.swap(scratch);
}

}  // namespace

void SortEntries(std::vector<SketchEntry>& entries, EntryOrder order) {
  switch (order) {
    case EntryOrder::kCanonical:
      return Sort(entries, order, CanonicalLess());
    case EntryOrder::kByItem:
      return Sort(entries, order, ItemLess());
    case EntryOrder::kLoad:
      return Sort(entries, order, LoadLess());
  }
}

void CombineByItem(std::vector<SketchEntry>& entries) {
  SortEntries(entries, EntryOrder::kByItem);
  size_t w = 0;
  for (size_t r = 0; r < entries.size(); ++r) {
    if (w > 0 && entries[w - 1].item == entries[r].item) {
      entries[w - 1].count += entries[r].count;
    } else {
      entries[w++] = entries[r];
    }
  }
  entries.resize(w);
}

std::vector<uint32_t> CanonicalizeByItem(std::vector<SketchEntry>& entries) {
  const size_t n = entries.size();
  DSKETCH_CHECK(n <= UINT32_MAX);
  DSKETCH_DCHECK(std::is_sorted(entries.begin(), entries.end(), ItemLess()));
  // order[i]: the item rank of the entry that goes to position i. LSD
  // passes over the count bytes that differ, starting from rank order.
  std::vector<uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0u);
  if (n > 1) {
    const uint64_t high0 = RadixKey::High(entries[0]);
    uint64_t diff = 0;
    for (const SketchEntry& e : entries) diff |= RadixKey::High(e) ^ high0;
    int shifts[8];
    int num_passes = 0;
    for (int b = 0; b < 8; ++b) {
      if ((diff >> (8 * b)) & 0xff) shifts[num_passes++] = 8 * b;
    }
    uint32_t hist[8][256];
    for (int p = 0; p < num_passes; ++p) {
      std::fill(std::begin(hist[p]), std::end(hist[p]), 0);
    }
    for (const SketchEntry& e : entries) {
      const uint64_t high = RadixKey::High(e);
      for (int p = 0; p < num_passes; ++p) {
        ++hist[p][(high >> shifts[p]) & 0xff];
      }
    }
    std::vector<uint32_t> scratch(num_passes > 0 ? n : 0);
    for (int p = 0; p < num_passes; ++p) {
      uint32_t* h = hist[p];
      uint32_t offset = 0;
      for (int v = 0; v < 256; ++v) {
        const uint32_t c = h[v];
        h[v] = offset;
        offset += c;
      }
      for (size_t i = 0; i < n; ++i) {
        const uint32_t r = order[i];
        scratch[h[(RadixKey::High(entries[r]) >> shifts[p]) & 0xff]++] = r;
      }
      order.swap(scratch);
    }
  }
  std::vector<uint32_t> index(n);
  for (size_t i = 0; i < n; ++i) index[order[i]] = static_cast<uint32_t>(i);
  // Gather along the permutation's cycles; a finished position points
  // at itself.
  for (size_t i = 0; i < n; ++i) {
    if (order[i] == i) continue;
    const SketchEntry first = entries[i];
    size_t j = i;
    while (order[j] != i) {
      const size_t k = order[j];
      entries[j] = entries[k];
      order[j] = static_cast<uint32_t>(j);
      j = k;
    }
    entries[j] = first;
    order[j] = static_cast<uint32_t>(j);
  }
  return index;
}

}  // namespace dsketch
