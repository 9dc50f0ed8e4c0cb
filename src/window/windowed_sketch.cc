#include "window/windowed_sketch.h"

#include <algorithm>

namespace dsketch {

size_t MergeShardsFrom(const std::vector<const WindowedSpaceSaving*>& shards,
                       uint64_t from, WindowedSpaceSaving& merged,
                       PartLabels labels) {
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
                        MergeShards(parts, opt.epoch_capacity, opt.seed + e,
                                    labels));
    }
  }
  const size_t remerged = tail.size();
  window_metrics::EpochsRemerged().Inc(remerged);

  // Decayed state: each shard's accumulator, plus its open epoch when it
  // lags (closed from the merged view's side), merged by lining up
  // landmarks. A part restored with another half-life, or none, enters
  // as its view as of its open epoch.
  std::optional<DecayedSpaceSaving> decayed;
  if (opt.half_life_epochs > 0.0) {
    std::vector<DecayedSpaceSaving> frames;
    frames.reserve(shards.size());
    for (const WindowedSpaceSaving* s : shards) {
      const std::optional<DecayedSpaceSaving>& own = s->decayed_accumulator();
      if (own.has_value() && own->half_life() == opt.half_life_epochs) {
        frames.push_back(*own);
      } else {
        frames.emplace_back(own.has_value()
                                ? s->DecayedClosedView()
                                : WeightedSpaceSaving(opt.merged_capacity),
                            opt.half_life_epochs,
                            static_cast<double>(s->CurrentEpoch()));
      }
      if (s->CurrentEpoch() < current) {
        WindowedSpaceSaving::AddEpoch(s->slots().back(), frames.back());
      }
    }
    decayed = MergeDecayed(frames, opt.merged_capacity, opt.seed + current);
  }

  merged.ReplaceTail(from, std::move(tail), std::move(decayed),
                     std::min(rows_in_epoch, total_rows), total_rows);
  return remerged;
}

WindowedSpaceSaving MergeShards(
    const std::vector<const WindowedSpaceSaving*>& shards,
    size_t epoch_capacity, uint64_t seed, PartLabels labels) {
  DSKETCH_CHECK(!shards.empty());
  WindowedSketchOptions opt = shards.front()->options();
  opt.epoch_capacity = epoch_capacity;
  opt.seed = seed;
  WindowedSpaceSaving out(opt);
  MergeShardsFrom(shards, 0, out, labels);
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
