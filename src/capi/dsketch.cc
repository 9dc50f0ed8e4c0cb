#include "capi/dsketch.h"

#include <cstring>
#include <optional>
#include <string_view>

#include "core/subset_sum.h"
#include "wire/frozen.h"

namespace {

// The C record and the wire record must agree byte-for-byte: callers
// hand us arrays of one and FreezeInto reads arrays of the other.
static_assert(sizeof(dsketch_frozen_entry) == sizeof(dsketch::wire::FrozenEntry),
              "C ABI entry must match the wire entry layout");
static_assert(sizeof(dsketch_frozen_entry) == 16,
              "frozen entry records are 16 bytes on the wire");

std::optional<dsketch::wire::FrozenView> VetImage(const void* image,
                                                  size_t bytes) {
  if (image == nullptr) return std::nullopt;
  return dsketch::wire::FrozenView::Vet(
      std::string_view(static_cast<const char*>(image), bytes));
}

}  // namespace

extern "C" {

size_t dsketch_freeze_size(size_t entry_count) {
  return dsketch::wire::FrozenImageBytes(entry_count);
}

size_t dsketch_freeze(const dsketch_frozen_entry* entries,
                      size_t entry_count, uint64_t capacity,
                      int64_t min_count, int64_t total_count, void* out,
                      size_t out_bytes) {
  if ((entries == nullptr && entry_count > 0) || out == nullptr) return 0;
  // Layout-identical (static_asserted above): reinterpret, don't copy.
  return dsketch::wire::FreezeInto(
      reinterpret_cast<const dsketch::wire::FrozenEntry*>(entries),
      entry_count, capacity, min_count, total_count, out, out_bytes);
}

int dsketch_frozen_valid(const void* image, size_t bytes) {
  return VetImage(image, bytes).has_value() ? 1 : 0;
}

uint64_t dsketch_frozen_entry_count(const void* image, size_t bytes) {
  std::optional<dsketch::wire::FrozenView> view = VetImage(image, bytes);
  return view.has_value() ? view->entry_count() : 0;
}

int64_t dsketch_frozen_total_count(const void* image, size_t bytes) {
  std::optional<dsketch::wire::FrozenView> view = VetImage(image, bytes);
  return view.has_value() ? view->total_count() : 0;
}

int64_t dsketch_frozen_estimate(const void* image, size_t bytes,
                                uint64_t item) {
  std::optional<dsketch::wire::FrozenView> view = VetImage(image, bytes);
  return view.has_value() ? view->EstimateCount(item) : 0;
}

int dsketch_frozen_query_sum(const void* image, size_t bytes,
                             const uint64_t* items, size_t n_items,
                             dsketch_frozen_sum* out) {
  if (out == nullptr) return 0;
  out->estimate = 0.0;
  out->variance = 0.0;
  out->items_in_sample = 0;
  std::optional<dsketch::wire::FrozenView> view = VetImage(image, bytes);
  if (!view.has_value() || (items == nullptr && n_items > 0)) return 0;
  // The C++ engine's kernel over the image (membership is a linear scan
  // of the query set), so the answer is bit-identical for the same set.
  const dsketch::SubsetSumEstimate r = dsketch::SubsetSumOver(
      *view, view->min_count(), [&](uint64_t entry_item) {
        for (size_t i = 0; i < n_items; ++i) {
          if (items[i] == entry_item) return true;
        }
        return false;
      });
  out->estimate = r.estimate;
  out->variance = r.variance;
  out->items_in_sample = r.items_in_sample;
  return 1;
}

size_t dsketch_frozen_query_topk(const void* image, size_t bytes, size_t k,
                                 dsketch_frozen_entry* out) {
  if (out == nullptr) return 0;
  std::optional<dsketch::wire::FrozenView> view = VetImage(image, bytes);
  if (!view.has_value()) return 0;
  const size_t n = static_cast<size_t>(view->entry_count());
  const size_t take = k < n ? k : n;
  for (size_t i = 0; i < take; ++i) {
    const dsketch::wire::FrozenEntry e = view->entry(i);
    out[i].item = e.item;
    out[i].count = e.count;
  }
  return take;
}

}  // extern "C"
