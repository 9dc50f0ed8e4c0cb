#include "core/space_saving_core.h"

#include <algorithm>

#include "core/entry_order.h"
#include "util/logging.h"

namespace dsketch {

SpaceSavingCore::SpaceSavingCore(size_t capacity, LabelPolicy policy,
                                 uint64_t seed, TieBreak tie_break)
    : policy_(policy),
      tie_break_(tie_break),
      index_(capacity),
      rng_(seed) {
  DSKETCH_CHECK(capacity > 0);
  // Slot positions are uint32; index table positions (2x the bin count,
  // rounded up to a power of two) must fit uint32 as well for the
  // slot -> index backpointers. 2^30 bins is already a ~48 GiB sketch.
  DSKETCH_CHECK(capacity <= (1ULL << 30));
  slots_.assign(capacity, Slot{kNoLabel, 0});
  index_pos_.assign(capacity, kNoIndex);
  // One range per *distinct count value*, which stays far below capacity
  // for realistic (skewed) streams; the pool grows on demand. Pre-sizing
  // it to `capacity` would cost memory that almost never holds a range.
  rid_.assign(capacity, 0);
  pool_.push_back(Range{0, static_cast<uint32_t>(capacity)});
  min_range_end_ = static_cast<uint32_t>(capacity);
}

void SpaceSavingCore::SwapSlots(uint32_t a, uint32_t b) {
  if (a == b) return;
  std::swap(slots_[a], slots_[b]);
  std::swap(index_pos_[a], index_pos_[b]);
  // The backpointers name each label's index table slot, so the two
  // item -> position mappings are fixed with one direct store apiece —
  // no Mix, no probe walk (the old InsertOrAssign pair re-probed both
  // labels' chains on every bin swap, i.e. twice per stream row).
  if (slots_[a].item != kNoLabel) {
    DSKETCH_DCHECK(index_.KeyAtPos(index_pos_[a]) == slots_[a].item);
    index_.AssignAtPos(index_pos_[a], a);
  }
  if (slots_[b].item != kNoLabel) {
    DSKETCH_DCHECK(index_.KeyAtPos(index_pos_[b]) == slots_[b].item);
    index_.AssignAtPos(index_pos_[b], b);
  }
}

uint32_t SpaceSavingCore::IncrementSlot(uint32_t i) {
  const int64_t c = slots_[i].count;
  const uint32_t id = rid_[i];
  Range& r = pool_[id];
  DSKETCH_DCHECK(r.begin <= i && i < r.end);
  const uint32_t last = r.end - 1;
  // The range with begin == 0 is the minimum-count range (ranges partition
  // the slot array in ascending count order).
  const bool was_min = r.begin == 0;
  SwapSlots(i, last);
  slots_[last].count = c + 1;

  // For the same reason the c+1 range, if any, starts right above `last`.
  const uint32_t above = last + 1;
  const bool join_up = above < slots_.size() && slots_[above].count == c + 1;
  const bool emptied = r.begin == last;
  if (!emptied) {
    r.end = last;  // before NewRange, which may move the pool
    if (was_min) min_range_end_ = last;
  }
  if (join_up) {
    const uint32_t up = rid_[above];
    pool_[up].begin = last;
    rid_[last] = up;
    if (emptied) {
      free_ids_.push_back(id);
      if (was_min) min_range_end_ = pool_[up].end;
    }
  } else if (!emptied) {
    rid_[last] = NewRange(last, above);
  }
  // An emptied c range with no c+1 range simply becomes it: same id, same
  // [last, last + 1), and min_range_end_ already fits.
  ++total_;
  return last;
}

uint32_t SpaceSavingCore::NewRange(uint32_t begin, uint32_t end) {
  if (free_ids_.empty()) {
    pool_.push_back(Range{begin, end});
    return static_cast<uint32_t>(pool_.size() - 1);
  }
  const uint32_t id = free_ids_.back();
  free_ids_.pop_back();
  pool_[id] = Range{begin, end};
  return id;
}

void SpaceSavingCore::Update(uint64_t item) {
  UpdateHashed(item, FlatMap<uint32_t>::MixedHash(item));
}

void SpaceSavingCore::UpdateBatch(Span<const uint64_t> items) {
  // Each row's key is mixed kAhead rows early and its probe line
  // prefetched then, so by the time the row applies the line is usually
  // in cache.
  constexpr size_t kAhead = 8;
  const uint64_t* data = items.data();
  const size_t n = items.size();
  uint64_t hashes[kAhead];
  for (size_t i = 0; i < n; ++i) {
    // Read row i's hash before the lookahead write below reuses its
    // ring slot (the ring is exactly one lookahead distance long).
    const uint64_t h = i >= kAhead ? hashes[i % kAhead]
                                   : FlatMap<uint32_t>::MixedHash(data[i]);
    if (i + kAhead < n) {
      const uint64_t ha = FlatMap<uint32_t>::MixedHash(data[i + kAhead]);
      hashes[(i + kAhead) % kAhead] = ha;
      index_.Prefetch(ha);
    }
    UpdateHashed(data[i], h);
  }
}

void SpaceSavingCore::UpdateHashed(uint64_t item, uint64_t hash) {
  if (uint32_t* pos = index_.FindHashed(item, hash)) {
    IncrementSlot(*pos);
    return;
  }
  ApplyUntracked(item, hash);
}

void SpaceSavingCore::ApplyUntracked(uint64_t item, uint64_t hash) {
  DSKETCH_DCHECK(item != kNoLabel && item != FlatMap<uint32_t>::kEmpty);
  // Pick a minimum-count bin. The minimum range is always
  // [0, min_range_end_) — maintained by IncrementSlot, no lookup needed.
  const int64_t min_count = slots_.front().count;
  DSKETCH_DCHECK(pool_[rid_[0]].begin == 0 &&
                 pool_[rid_[0]].end == min_range_end_);
  uint32_t k;
  if (tie_break_ == TieBreak::kRandom && min_range_end_ > 1) {
    k = static_cast<uint32_t>(rng_.NextBounded(min_range_end_));
  } else {
    k = 0;
  }

  // Replace the label with probability p. An unlabeled (never used) bin
  // has count 0, so p = 1 under both policies and the item is adopted.
  bool replace = true;
  if (policy_ == LabelPolicy::kUnbiased && min_count > 0) {
    replace = rng_.NextBernoulli(1.0 / (static_cast<double>(min_count) + 1.0));
  }
  if (replace) {
    if (slots_[k].item != kNoLabel) {
      // The victim's index entry is erased at its known table position:
      // no re-Mix, no probe walk to find it again. Backward-shift
      // relocations of neighboring entries are reported through the
      // hook, which repairs their bins' backpointers in O(1) each.
      DSKETCH_DCHECK(index_.KeyAtPos(index_pos_[k]) == slots_[k].item);
      index_.EraseAtPos(index_pos_[k], [this](uint32_t bin, size_t pos) {
        index_pos_[bin] = static_cast<uint32_t>(pos);
      });
      index_pos_[k] = kNoIndex;
    }
    slots_[k].item = item;
    index_pos_[k] = static_cast<uint32_t>(
        index_.InsertOrAssignPosHashed(item, hash, k));
    // index_ was pre-sized for capacity() keys, so the insert above can
    // never trigger a rehash that would silently move stored positions.
    DSKETCH_DCHECK(index_.TableSize() >= 2 * slots_.size());
  }
  IncrementSlot(k);
}

int64_t SpaceSavingCore::EstimateCount(uint64_t item) const {
  const uint32_t* pos = index_.Find(item);
  return pos != nullptr ? slots_[*pos].count : 0;
}

std::vector<SketchEntry> SpaceSavingCore::Entries() const {
  std::vector<SketchEntry> out;
  out.reserve(index_.size());
  ForEachEntry([&out](uint64_t item, int64_t count) {
    out.push_back({item, count});
    return true;
  });
  return out;
}

void SpaceSavingCore::LoadEntries(std::vector<SketchEntry> entries) {
  DSKETCH_CHECK(entries.size() <= slots_.size());
  index_.Clear();
  pool_.clear();
  free_ids_.clear();
  total_ = 0;

  // Ascending by count with a deterministic tie-break (descending item,
  // so the reverse iteration in Entries() reports count descending, ties
  // ascending item). This makes restore canonical: a thawed sketch's
  // Entries() order matches the frozen image's canonical entry order
  // exactly, which the frozen query path (wire/frozen.h) relies on for
  // bit-identical answers.
  SortEntries(entries, EntryOrder::kLoad);

  const size_t pad = slots_.size() - entries.size();
  for (size_t i = 0; i < pad; ++i) {
    slots_[i].item = kNoLabel;
    slots_[i].count = 0;
    index_pos_[i] = kNoIndex;
  }
  for (size_t i = 0; i < entries.size(); ++i) {
    DSKETCH_CHECK(entries[i].count >= 0);
    slots_[pad + i].item = entries[i].item;
    slots_[pad + i].count = entries[i].count;
    total_ += entries[i].count;
    index_pos_[pad + i] =
        static_cast<uint32_t>(index_.InsertOrAssignPosHashed(
            entries[i].item, FlatMap<uint32_t>::MixedHash(entries[i].item),
            static_cast<uint32_t>(pad + i)));
  }

  // Rebuild the count ranges and their ids over the now-sorted slots.
  size_t begin = 0;
  for (size_t i = 1; i <= slots_.size(); ++i) {
    if (i == slots_.size() || slots_[i].count != slots_[begin].count) {
      const uint32_t id = static_cast<uint32_t>(pool_.size());
      pool_.push_back(
          Range{static_cast<uint32_t>(begin), static_cast<uint32_t>(i)});
      for (size_t j = begin; j < i; ++j) rid_[j] = id;
      if (begin == 0) min_range_end_ = static_cast<uint32_t>(i);
      begin = i;
    }
  }
}

}  // namespace dsketch
