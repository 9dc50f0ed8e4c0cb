#include "window/windowed_sketch.h"

#include <algorithm>
#include <cmath>

namespace dsketch {

namespace {

// Decayed accumulator of `shard` re-expressed as of `current` (the
// merged view's open epoch): the stored mass ages by the epochs the
// shard lags behind, and the shard's own open epoch — closed from the
// merged view's perspective when it lags — folds in at its true age.
// `half_life_epochs` is the merged view's (> 0 when this is called): a
// shard restored from a non-decayed blob carries half_life 0, and its
// own value would make the factor exp2(-lag/0) = 0, which Scale
// CHECK-rejects. A lag whose factor underflows double (trivial with
// timestamp-valued epochs) drains the shard's mass instead.
WeightedSpaceSaving AlignDecayed(const WindowedSpaceSaving& shard,
                                 uint64_t current, double half_life_epochs,
                                 uint64_t seed) {
  const WindowedSketchOptions& opt = shard.options();
  WeightedSpaceSaving acc = shard.DecayedClosedView();
  const uint64_t lag = current - shard.CurrentEpoch();
  if (lag == 0) return acc;
  const double age_factor =
      std::exp2(-static_cast<double>(lag) / half_life_epochs);
  if (age_factor <= 0.0) {
    return WeightedSpaceSaving(opt.merged_capacity, seed);
  }
  acc.Scale(age_factor);
  WeightedSpaceSaving open(opt.merged_capacity, seed);
  for (const SketchEntry& e : shard.slots().back().sketch.Entries()) {
    if (e.count > 0) {
      open.Update(e.item, static_cast<double>(e.count) * age_factor);
    }
  }
  if (open.size() == 0) return acc;
  return Merge(acc, open, opt.merged_capacity, seed);
}

}  // namespace

size_t MergeShardsFrom(const std::vector<const WindowedSpaceSaving*>& shards,
                       uint64_t from, WindowedSpaceSaving& merged) {
  DSKETCH_CHECK(!shards.empty());
  const WindowedSketchOptions& opt = merged.options();

  uint64_t current = 0;
  uint64_t rows_in_epoch = 0;
  uint64_t total_rows = 0;
  for (const WindowedSpaceSaving* s : shards) {
    DSKETCH_CHECK(s != nullptr);
    current = std::max(current, s->CurrentEpoch());
    total_rows += s->TotalRows();
  }
  // Open-epoch row count: only shards whose open epoch IS the merged
  // open epoch contribute — a lagging shard's open rows belong to an
  // older (closed) slot of the merged ring.
  for (const WindowedSpaceSaving* s : shards) {
    if (s->CurrentEpoch() == current) rows_in_epoch += s->RowsInCurrentEpoch();
  }
  // The newest epoch is always re-merged, so the tail is never empty.
  from = std::min(from, current);
  const uint64_t lo = current + 1 >= opt.window_epochs
                          ? current + 1 - opt.window_epochs
                          : 0;
  const uint64_t first = std::max(lo, from);

  // One merged slot per epoch in [first, current], aligned by absolute
  // epoch id; epochs no shard saw stay as empty sketches so last-k
  // counting matches a single sketch over the whole stream. Each part's
  // cursor starts at its first slot at or after `first` and steps past
  // a slot once its epoch is merged: O(W + parts · log W) lookups.
  using Slots = std::deque<WindowedSpaceSaving::EpochSlot>;
  std::vector<Slots::const_iterator> cursors;
  cursors.reserve(shards.size());
  for (const WindowedSpaceSaving* s : shards) {
    cursors.push_back(std::lower_bound(
        s->slots().begin(), s->slots().end(), first,
        [](const WindowedSpaceSaving::EpochSlot& slot, uint64_t e) {
          return slot.epoch < e;
        }));
  }
  Slots tail;
  std::vector<const UnbiasedSpaceSaving*> parts;
  for (uint64_t e = first; e <= current; ++e) {
    parts.clear();
    for (size_t i = 0; i < shards.size(); ++i) {
      Slots::const_iterator& it = cursors[i];
      if (it == shards[i]->slots().end() || it->epoch != e) continue;
      if (it->sketch.size() > 0) parts.push_back(&it->sketch);
      ++it;
    }
    if (parts.empty()) {
      tail.emplace_back(e,
                        UnbiasedSpaceSaving(opt.epoch_capacity, opt.seed + e));
    } else {
      tail.emplace_back(e,
                        MergeShards(parts, opt.epoch_capacity, opt.seed + e));
    }
  }
  const size_t remerged = tail.size();
  window_metrics::EpochsRemerged().Inc(remerged);

  WeightedSpaceSaving decayed(opt.merged_capacity, opt.seed);
  if (opt.half_life_epochs > 0.0) {
    std::vector<WeightedSpaceSaving> aligned;
    aligned.reserve(shards.size());
    for (const WindowedSpaceSaving* s : shards) {
      aligned.push_back(AlignDecayed(*s, current, opt.half_life_epochs,
                                     opt.seed + current));
    }
    decayed = MergeShards(aligned, opt.merged_capacity, opt.seed + current);
  }

  merged.ReplaceTail(from, std::move(tail), std::move(decayed),
                     std::min(rows_in_epoch, total_rows), total_rows);
  return remerged;
}

WindowedSpaceSaving MergeShards(
    const std::vector<const WindowedSpaceSaving*>& shards,
    size_t epoch_capacity, uint64_t seed) {
  DSKETCH_CHECK(!shards.empty());
  WindowedSketchOptions opt = shards.front()->options();
  opt.epoch_capacity = epoch_capacity;
  opt.seed = seed;
  WindowedSpaceSaving out(opt);
  MergeShardsFrom(shards, 0, out);
  return out;
}

WindowedSpaceSaving MergeShards(const std::vector<WindowedSpaceSaving>& shards,
                                size_t epoch_capacity, uint64_t seed) {
  std::vector<const WindowedSpaceSaving*> ptrs;
  ptrs.reserve(shards.size());
  for (const WindowedSpaceSaving& s : shards) ptrs.push_back(&s);
  return MergeShards(ptrs, epoch_capacity, seed);
}

}  // namespace dsketch
