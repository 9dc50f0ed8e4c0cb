#include "core/weighted_space_saving.h"

#include <algorithm>

#include "util/logging.h"

namespace dsketch {

WeightedSpaceSaving::WeightedSpaceSaving(size_t capacity, uint64_t seed)
    : capacity_(capacity), index_(capacity), rng_(seed) {
  DSKETCH_CHECK(capacity > 0);
  heap_.reserve(capacity);
  items_.reserve(capacity);
  pos_.reserve(capacity);
}

void WeightedSpaceSaving::Place(size_t i, HeapNode node) {
  heap_[i] = node;
  pos_[node.id] = static_cast<uint32_t>(i);
}

void WeightedSpaceSaving::SiftUp(size_t i) {
  HeapNode node = heap_[i];
  while (i > 0) {
    size_t parent = (i - 1) / 2;
    if (heap_[parent].weight <= node.weight) break;
    Place(i, heap_[parent]);
    i = parent;
  }
  Place(i, node);
}

void WeightedSpaceSaving::SiftDown(size_t i) {
  HeapNode node = heap_[i];
  const size_t n = heap_.size();
  while (true) {
    size_t child = 2 * i + 1;
    if (child >= n) break;
    if (child + 1 < n && heap_[child + 1].weight < heap_[child].weight) {
      ++child;
    }
    if (heap_[child].weight >= node.weight) break;
    Place(i, heap_[child]);
    i = child;
  }
  Place(i, node);
}

void WeightedSpaceSaving::Update(uint64_t item, double weight) {
  UpdateHashed(item, FlatMap<uint32_t>::MixedHash(item), weight);
}

void WeightedSpaceSaving::UpdateBatch(Span<const uint64_t> items,
                                      double weight) {
  UpdateBatch(items, Span<const double>(nullptr, 0), weight);
}

void WeightedSpaceSaving::UpdateBatch(Span<const uint64_t> items,
                                      Span<const double> weights) {
  DSKETCH_CHECK(weights.size() == items.size());
  UpdateBatch(items, weights, 0.0);
}

void WeightedSpaceSaving::UpdateBatch(Span<const WeightedEntry> rows) {
  // Deinterleave into the aligned-array form chunk by chunk so the rows
  // reuse the pre-hash + prefetch pipeline below.
  constexpr size_t kChunk = 256;
  uint64_t items[kChunk];
  double weights[kChunk];
  for (size_t base = 0; base < rows.size(); base += kChunk) {
    const size_t len = std::min(kChunk, rows.size() - base);
    for (size_t j = 0; j < len; ++j) {
      items[j] = rows[base + j].item;
      weights[j] = rows[base + j].weight;
    }
    UpdateBatch(Span<const uint64_t>(items, len),
                Span<const double>(weights, len), 0.0);
  }
}

void WeightedSpaceSaving::UpdateBatch(Span<const uint64_t> items,
                                      Span<const double> weights,
                                      double shared_weight) {
  // Same chunked pre-hash + prefetch scheme as SpaceSavingCore; the state
  // transitions and RNG draws match per-row Update exactly.
  constexpr size_t kChunk = 256;
  constexpr size_t kAhead = 12;
  uint64_t hashes[kChunk];
  const uint64_t* data = items.data();
  const size_t n = items.size();
  const bool per_row = weights.size() == n && n > 0;
  for (size_t base = 0; base < n; base += kChunk) {
    const size_t len = std::min(kChunk, n - base);
    for (size_t j = 0; j < len; ++j) {
      hashes[j] = FlatMap<uint32_t>::MixedHash(data[base + j]);
    }
    const size_t lead = std::min(kAhead, len);
    for (size_t j = 0; j < lead; ++j) index_.Prefetch(hashes[j]);
    for (size_t j = 0; j < len; ++j) {
      if (j + kAhead < len) index_.Prefetch(hashes[j + kAhead]);
      const double w = per_row ? weights[base + j] : shared_weight;
      UpdateHashed(data[base + j], hashes[j], w);
    }
  }
}

void WeightedSpaceSaving::UpdateHashed(uint64_t item, uint64_t hash,
                                       double weight) {
  DSKETCH_CHECK(weight > 0.0);
  total_ += weight;

  if (const uint32_t* id = index_.FindHashed(item, hash)) {
    const size_t i = pos_[*id];
    heap_[i].weight += weight;
    SiftDown(i);
    return;
  }
  if (heap_.size() < capacity_) {
    // Bin ids are handed out in fill order: id == its first position.
    const uint32_t id = static_cast<uint32_t>(heap_.size());
    items_.push_back(item);
    pos_.push_back(id);
    index_.InsertOrAssignHashed(item, hash, id);
    heap_.push_back({weight, id});
    SiftUp(heap_.size() - 1);
    return;
  }

  // Full: treat the row as a temporary (m+1)-th bin and PPS-collapse the
  // two smallest of the m+1 bins (Theorem 2 reduction). The smallest is
  // the heap root; the second smallest is the smaller of the root's
  // children and the incoming bin.
  size_t second = 0;  // index of the second-smallest *heap* bin
  if (heap_.size() > 1) {
    second = 1;
    if (heap_.size() > 2 && heap_[2].weight < heap_[1].weight) second = 2;
  }

  // Keeps hi's label with probability hi_weight / combined.
  auto pps_winner = [this](uint64_t lo, uint64_t hi, double hi_weight,
                           double combined) -> uint64_t {
    return rng_.NextDouble() * combined < hi_weight ? hi : lo;
  };

  const HeapNode root = heap_[0];
  const uint64_t root_item = items_[root.id];
  if (second == 0 || weight <= heap_[second].weight) {
    // Collapse root with the incoming bin; the root's bin takes the
    // winning label (its index entry moves only if the row wins).
    const bool incoming_lower = weight < root.weight;
    const double combined = root.weight + weight;
    const uint64_t winner =
        incoming_lower
            ? pps_winner(item, root_item, root.weight, combined)
            : pps_winner(root_item, item, weight, combined);
    if (winner != root_item) {
      index_.Erase(root_item);
      items_[root.id] = item;
      index_.InsertOrAssignHashed(item, hash, root.id);
    }
    heap_[0].weight = combined;
    SiftDown(0);
  } else {
    // Collapse root with its smaller child; the freed bin takes the
    // incoming row unchanged.
    const HeapNode next = heap_[second];
    const uint64_t next_item = items_[next.id];
    const double combined = root.weight + next.weight;
    const uint64_t winner =
        pps_winner(root_item, next_item, next.weight, combined);
    // The root's bin keeps the winner, the freed one takes the row.
    index_.Erase(winner == root_item ? next_item : root_item);
    if (winner != root_item) {
      items_[root.id] = winner;
      index_.InsertOrAssign(winner, root.id);
    }
    items_[next.id] = item;
    index_.InsertOrAssignHashed(item, hash, next.id);
    heap_[second].weight = weight;
    SiftDown(second);
    heap_[0].weight = combined;
    SiftDown(0);
  }
}

double WeightedSpaceSaving::EstimateWeight(uint64_t item) const {
  const uint32_t* id = index_.Find(item);
  return id != nullptr ? heap_[pos_[*id]].weight : 0.0;
}

double WeightedSpaceSaving::MinWeight() const {
  if (heap_.size() < capacity_) return 0.0;
  return heap_.empty() ? 0.0 : heap_[0].weight;
}

std::vector<WeightedEntry> WeightedSpaceSaving::Entries() const {
  std::vector<WeightedEntry> out;
  out.reserve(heap_.size());
  for (const HeapNode& node : heap_) {
    out.push_back({items_[node.id], node.weight});
  }
  std::sort(out.begin(), out.end(),
            [](const WeightedEntry& a, const WeightedEntry& b) {
              return a.weight > b.weight;
            });
  return out;
}

void WeightedSpaceSaving::Scale(double factor) {
  DSKETCH_CHECK(factor > 0.0);
  for (HeapNode& node : heap_) node.weight *= factor;
  total_ *= factor;
}

void WeightedSpaceSaving::LoadEntries(
    const std::vector<WeightedEntry>& entries) {
  DSKETCH_CHECK(entries.size() <= capacity_);
  heap_.clear();
  items_.clear();
  pos_.clear();
  index_.Clear();
  total_ = 0.0;
  for (const WeightedEntry& e : entries) {
    DSKETCH_CHECK(e.weight >= 0.0);
    const uint32_t id = static_cast<uint32_t>(heap_.size());
    items_.push_back(e.item);
    pos_.push_back(id);
    index_.InsertOrAssign(e.item, id);
    heap_.push_back({e.weight, id});
    total_ += e.weight;
  }
  // Heapify bottom-up; every sift places (and so positions) its bin.
  for (size_t i = heap_.size(); i > 0; --i) SiftDown(i - 1);
}

}  // namespace dsketch
