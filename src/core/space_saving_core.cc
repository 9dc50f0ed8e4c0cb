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
      // Sized for the number of *distinct count values*, which stays far
      // below capacity for realistic (skewed) streams; the map grows on
      // demand. Pre-sizing to `capacity` would spread a handful of hot
      // entries over megabytes and turn every range lookup into a cache
      // miss at production sketch sizes.
      ranges_(64),
      rng_(seed) {
  DSKETCH_CHECK(capacity > 0);
  // Slot positions are uint32; index table positions (2x the bin count,
  // rounded up to a power of two) must fit uint32 as well for the
  // slot -> index backpointers. 2^30 bins is already a ~48 GiB sketch.
  DSKETCH_CHECK(capacity <= (1ULL << 30));
  slots_.assign(capacity, Slot{kNoLabel, 0});
  index_pos_.assign(capacity, kNoIndex);
  ranges_.InsertOrAssign(0, Range{0, static_cast<uint32_t>(capacity)});
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
  Range* r = ranges_.Find(static_cast<uint64_t>(c));
  DSKETCH_DCHECK(r != nullptr && r->begin <= i && i < r->end);
  const uint32_t last = r->end - 1;
  // The range with begin == 0 is the minimum-count range (ranges partition
  // the slot array in ascending count order).
  const bool was_min = r->begin == 0;
  SwapSlots(i, last);
  slots_[last].count = c + 1;

  if (r->begin == last) {
    ranges_.Erase(static_cast<uint64_t>(c));
  } else {
    r->end = last;
    if (was_min) min_range_end_ = last;
  }
  Range* up = ranges_.Find(static_cast<uint64_t>(c + 1));
  if (up != nullptr) {
    DSKETCH_DCHECK(up->begin == last + 1);
    up->begin = last;
    if (was_min && last == 0) min_range_end_ = up->end;
  } else {
    ranges_.InsertOrAssign(static_cast<uint64_t>(c + 1),
                           Range{last, last + 1});
    if (was_min && last == 0) min_range_end_ = last + 1;
  }
  ++total_;
  return last;
}

void SpaceSavingCore::Update(uint64_t item) {
  UpdateHashed(item, FlatMap<uint32_t>::MixedHash(item));
}

void SpaceSavingCore::UpdateBatch(Span<const uint64_t> items) {
  // Small sketches live entirely in cache, where the pipeline's ring
  // bookkeeping costs more than the misses it hides; a plain loop that
  // only reuses the pre-mixed hash is the better batch path there.
  if (slots_.size() < 65536) {
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
    return;
  }
  PipelinedUpdateBatch(items);
}

void SpaceSavingCore::PipelinedUpdateBatch(Span<const uint64_t> items) {
  // Software-pipelined version of per-row Update, bit-for-bit identical
  // (the mutation and RNG order is unchanged; only *reads* are hoisted).
  // Row i + 2D gets its key mixed and its index probe line prefetched;
  // row i + D is looked up (probe line now hot) and its slot line
  // prefetched; row i is applied. A looked-up position can be stale by
  // apply time — the sketch mutates in between — so each verdict is
  // re-validated cheaply:
  //   * "tracked at pos": valid iff slots_[pos].item still == item (label
  //     and index stay bijective, so a matching label proves the position);
  //   * "untracked": valid unless one of the D in-flight applies adopted
  //     exactly this label (tracked via a tiny ring of recent adoptions).
  // Invalid verdicts (rare: only near-duplicate rows within D) redo the
  // full lookup.
  constexpr size_t kDist = 8;          // lookup -> apply distance
  constexpr size_t kRing = 2 * kDist;  // also prefetch -> lookup distance
  struct Looked {
    uint64_t item;
    uint64_t hash;
    uint32_t pos;  // kNotFound when absent at lookup time
  };
  constexpr uint32_t kNotFound = ~0u;
  Looked ring[kRing];
  uint64_t hashes[kRing];
  uint64_t adopted[kDist];  // labels adopted by the last kDist applies
  for (size_t i = 0; i < kDist; ++i) adopted[i] = kNoLabel;
  size_t adopt_next = 0;
  uint32_t guess[kRing];  // predicted minimum-bin picks (prefetch hints)
  for (size_t i = 0; i < kRing; ++i) guess[i] = kNotFound;

  const uint64_t* data = items.data();
  const size_t n = items.size();
  for (size_t i = 0; i < n; ++i) {
    // The minimum-bin slot predicted for row i+1 was prefetched one apply
    // ago; by now it has usually arrived, so reading the victim label and
    // prefetching its index probe line hides the eviction's erase miss.
    {
      uint32_t& g = guess[(i + 1) % kRing];
      if (g != kNotFound) {
        const uint64_t victim = slots_[g].item;
        if (victim != kNoLabel) {
          index_.Prefetch(FlatMap<uint32_t>::MixedHash(victim));
        }
        g = kNotFound;
      }
    }
    if (i + kRing < n) {  // stage 1: mix + prefetch index probe line
      const uint64_t h = FlatMap<uint32_t>::MixedHash(data[i + kRing]);
      hashes[(i + kRing) % kRing] = h;
      index_.Prefetch(h);
    }
    if (i + kDist < n) {  // stage 2: index lookup + prefetch slot line
      const size_t j = i + kDist;
      const uint64_t item = data[j];
      const uint64_t h = j < kRing ? FlatMap<uint32_t>::MixedHash(item)
                                   : hashes[j % kRing];
      Looked& lk = ring[j % kRing];
      lk.item = item;
      lk.hash = h;
      const uint32_t* pos = index_.FindHashed(item, h);
      if (pos != nullptr) {
        lk.pos = *pos;
        DSKETCH_PREFETCH(&slots_[lk.pos]);
      } else {
        lk.pos = kNotFound;
        // Every untracked apply swaps its minimum bin with the last slot
        // of the minimum range. The range end moves by at most kDist
        // rows until this row applies, so this line (or its neighbor,
        // also pulled) is almost always the one touched.
        const uint32_t end = min_range_end_;
        DSKETCH_PREFETCH(&slots_[end - 1]);
        if (end >= kDist) DSKETCH_PREFETCH(&slots_[end - kDist]);
      }
    }
    // stage 3: apply row i.
    const uint64_t item = data[i];
    bool did_adopt = false;
    bool redo = false;
    if (i < kDist) {
      redo = true;  // head of the stream: no lookup was staged
    } else {
      const Looked& lk = ring[i % kRing];
      DSKETCH_DCHECK(lk.item == item);
      if (lk.pos != kNotFound) {
        if (slots_[lk.pos].item == item) {
          IncrementSlot(lk.pos);
        } else {
          redo = true;  // label moved or evicted since lookup
        }
      } else {
        bool maybe_adopted = false;
        for (size_t a = 0; a < kDist; ++a) {
          maybe_adopted |= adopted[a] == item;
        }
        if (!maybe_adopted) {
          did_adopt = ApplyUntracked(item, lk.hash);
        } else {
          redo = true;  // an in-flight apply adopted this label
        }
      }
    }
    if (redo) {
      const uint64_t h = FlatMap<uint32_t>::MixedHash(item);
      if (uint32_t* pos = index_.FindHashed(item, h)) {
        IncrementSlot(*pos);
      } else {
        did_adopt = ApplyUntracked(item, h);
      }
    }
    adopted[adopt_next] = did_adopt ? item : kNoLabel;
    adopt_next = (adopt_next + 1) % kDist;

    // The RNG state now is exactly what the next applies will see, so if
    // the ring says the upcoming rows are untracked we can replay their
    // minimum-bin draws on a throwaway copy and prefetch the exact slots
    // they will touch (the min range shrinks by one per untracked apply).
    // A stale verdict merely wastes the prefetch; the real draws happen
    // at apply time as always.
    if (i + 1 < n && i + 1 >= kDist && tie_break_ == TieBreak::kRandom &&
        ring[(i + 1) % kRing].pos == kNotFound && min_range_end_ > 1) {
      uint32_t end = min_range_end_;
      const int64_t min_count = slots_.front().count;
      Rng peek = rng_;
      for (size_t d = 1; d <= 4 && i + d < n && end > 1; ++d) {
        const Looked& nx = ring[(i + d) % kRing];
        if (nx.pos != kNotFound) break;  // tracked: consumes no draws
        const uint32_t pick = static_cast<uint32_t>(peek.NextBounded(end));
        DSKETCH_PREFETCH(&slots_[pick]);
        guess[(i + d) % kRing] = pick;
        if (policy_ == LabelPolicy::kUnbiased && min_count > 0) {
          peek.NextDouble();  // the adoption draw, to stay aligned
        }
        --end;
      }
    }
  }
}

void SpaceSavingCore::UpdateHashed(uint64_t item, uint64_t hash) {
  if (uint32_t* pos = index_.FindHashed(item, hash)) {
    IncrementSlot(*pos);
    return;
  }
  ApplyUntracked(item, hash);
}

bool SpaceSavingCore::ApplyUntracked(uint64_t item, uint64_t hash) {
  DSKETCH_DCHECK(item != kNoLabel && item != FlatMap<uint32_t>::kEmpty);
  // Pick a minimum-count bin. The minimum range is always
  // [0, min_range_end_) — maintained by IncrementSlot, no lookup needed.
  const int64_t min_count = slots_.front().count;
  DSKETCH_DCHECK([&] {
    const Range* mr = ranges_.Find(static_cast<uint64_t>(min_count));
    return mr != nullptr && mr->begin == 0 && mr->end == min_range_end_;
  }());
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
  return replace;
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
  ranges_.Clear();
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

  // Rebuild the count -> range map over the now-sorted slot array.
  size_t begin = 0;
  for (size_t i = 1; i <= slots_.size(); ++i) {
    if (i == slots_.size() || slots_[i].count != slots_[begin].count) {
      ranges_.InsertOrAssign(static_cast<uint64_t>(slots_[begin].count),
                             Range{static_cast<uint32_t>(begin),
                                   static_cast<uint32_t>(i)});
      if (begin == 0) min_range_end_ = static_cast<uint32_t>(i);
      begin = i;
    }
  }
}

}  // namespace dsketch
