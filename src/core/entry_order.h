// Orderings of SketchEntry vectors for the merge path (paper §5.3).
//
// A merge combines entry sets by label, brings the sums into the
// canonical (count, item) order that fixes the pairwise reduction's RNG
// draw sequence, and loads the result into a sketch, which wants its own
// (count ascending, item descending) order. Every one of those sorts runs
// through SortEntries: an LSD radix sort on the order's (count, item)
// key that skips every key byte all entries share, so a merge of entries
// whose counts and labels fit in a few bytes pays for only those bytes.
//
// The sort is stable. For the two count orders the key is the whole
// entry, so any correct sort yields the same sequence; that is what
// keeps merges bit-identical to a comparison sort.

#ifndef DSKETCH_CORE_ENTRY_ORDER_H_
#define DSKETCH_CORE_ENTRY_ORDER_H_

#include <cstdint>
#include <vector>

#include "core/sketch_entry.h"

namespace dsketch {

enum class EntryOrder {
  kCanonical,  ///< count ascending, then item ascending (the §5.3 order)
  kByItem,     ///< item ascending; equal items keep their input order
  kLoad,       ///< count ascending, then item descending (LoadEntries)
};

/// Stably sorts `entries` into `order`. Returns at once when they
/// already are in order.
void SortEntries(std::vector<SketchEntry>& entries, EntryOrder order);

/// Sums the counts of duplicate labels in place; the result is in
/// kByItem order, one entry per label.
void CombineByItem(std::vector<SketchEntry>& entries);

/// Moves `entries`, which must be in kByItem order, into kCanonical
/// order in place and returns their item-order index: entry r of the
/// item order now sits at position index[r]. Input order already breaks
/// count ties by item, so only the count bytes are sorted on — a stable
/// radix sort of the 4-byte ranks — and no second copy of the entries
/// is made.
std::vector<uint32_t> CanonicalizeByItem(std::vector<SketchEntry>& entries);

}  // namespace dsketch

#endif  // DSKETCH_CORE_ENTRY_ORDER_H_
