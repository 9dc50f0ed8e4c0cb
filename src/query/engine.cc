#include "query/engine.h"

#include <algorithm>

#include "util/logging.h"

namespace dsketch {

SketchQueryEngine::SketchQueryEngine(const UnbiasedSpaceSaving* sketch,
                                     const AttributeTable* attrs)
    : sketch_(sketch), source_(nullptr), window_source_(nullptr),
      frozen_(nullptr), attrs_(attrs) {
  DSKETCH_CHECK(sketch != nullptr && attrs != nullptr);
}

SketchQueryEngine::SketchQueryEngine(SketchSource* source,
                                     const AttributeTable* attrs)
    : sketch_(nullptr), source_(source), window_source_(nullptr),
      frozen_(nullptr), attrs_(attrs) {
  DSKETCH_CHECK(source != nullptr && attrs != nullptr);
}

SketchQueryEngine::SketchQueryEngine(WindowedSketchSource* source,
                                     const AttributeTable* attrs)
    : sketch_(nullptr), source_(source), window_source_(source),
      frozen_(nullptr), attrs_(attrs) {
  DSKETCH_CHECK(source != nullptr && attrs != nullptr);
}

SketchQueryEngine::SketchQueryEngine(const FrozenSketchSource* source,
                                     const AttributeTable* attrs)
    : sketch_(nullptr), source_(nullptr), window_source_(nullptr),
      frozen_(source != nullptr ? &source->frozen() : nullptr),
      attrs_(attrs) {
  DSKETCH_CHECK(source != nullptr && attrs != nullptr);
}

const UnbiasedSpaceSaving& SketchQueryEngine::QuerySketch() const {
  return source_ != nullptr ? source_->View() : *sketch_;
}

SubsetSumEstimate SketchQueryEngine::Sum(const Predicate& where) const {
  if (frozen_ != nullptr) {
    // Zero-decode: FrozenSubsetSum walks the image in entry order with
    // the same accumulation EstimateSubsetSum uses over Entries(), so
    // the answer is bit-identical to the thawed path below.
    const wire::FrozenSumResult r =
        wire::FrozenSubsetSum(*frozen_, [&](uint64_t item) {
          return where.Matches(*attrs_, item);
        });
    SubsetSumEstimate est;
    est.estimate = r.estimate;
    est.variance = r.variance;
    est.items_in_sample = r.items_in_sample;
    return est;
  }
  return EstimateSubsetSum(QuerySketch(), [&](uint64_t item) {
    return where.Matches(*attrs_, item);
  });
}

template <typename KeyFn>
std::unordered_map<uint64_t, SubsetSumEstimate> SketchQueryEngine::GroupByImpl(
    const Predicate& where, KeyFn&& key_of) const {
  struct Acc {
    double sum = 0.0;
    uint64_t items = 0;
  };
  std::unordered_map<uint64_t, Acc> acc;
  auto add = [&](uint64_t item, int64_t count) {
    // Items the table does not describe belong to no group.
    if (item >= attrs_->num_items()) return;
    if (!where.Matches(*attrs_, item)) return;
    Acc& a = acc[key_of(item)];
    a.sum += static_cast<double>(count);
    ++a.items;
  };
  int64_t min_count;
  if (frozen_ != nullptr) {
    const size_t n = static_cast<size_t>(frozen_->entry_count());
    for (size_t i = 0; i < n; ++i) {
      const wire::FrozenEntry e = frozen_->entry(i);
      add(e.item, e.count);
    }
    min_count = frozen_->min_count();
  } else {
    const UnbiasedSpaceSaving& sketch = QuerySketch();
    for (const SketchEntry& e : sketch.Entries()) add(e.item, e.count);
    min_count = sketch.MinCount();
  }
  const double nmin = static_cast<double>(min_count);
  std::unordered_map<uint64_t, SubsetSumEstimate> out;
  out.reserve(acc.size());
  for (const auto& [key, a] : acc) {
    SubsetSumEstimate est;
    est.estimate = a.sum;
    est.items_in_sample = a.items;
    est.variance =
        nmin * nmin * static_cast<double>(std::max<uint64_t>(1, a.items));
    out.emplace(key, est);
  }
  return out;
}

namespace {

// GroupBy1's public key type is the attribute value itself.
std::unordered_map<uint32_t, SubsetSumEstimate> NarrowKeys(
    const std::unordered_map<uint64_t, SubsetSumEstimate>& wide) {
  std::unordered_map<uint32_t, SubsetSumEstimate> out;
  out.reserve(wide.size());
  for (const auto& [key, est] : wide) {
    out.emplace(static_cast<uint32_t>(key), est);
  }
  return out;
}

}  // namespace

std::unordered_map<uint32_t, SubsetSumEstimate> SketchQueryEngine::GroupBy1(
    size_t dim, const Predicate& where) const {
  auto key_of = [&](uint64_t item) {
    return static_cast<uint64_t>(attrs_->Get(item, dim));
  };
  return NarrowKeys(GroupByImpl(where, key_of));
}

std::unordered_map<uint64_t, SubsetSumEstimate> SketchQueryEngine::GroupBy2(
    size_t d1, size_t d2, const Predicate& where) const {
  auto key_of = [&](uint64_t item) {
    return PackGroupKey(attrs_->Get(item, d1), attrs_->Get(item, d2));
  };
  return GroupByImpl(where, key_of);
}

SubsetSumEstimate SketchQueryEngine::SumWindow(size_t last_k,
                                               const Predicate& where) const {
  DSKETCH_CHECK(window_source_ != nullptr);
  return EstimateSubsetSum(window_source_->WindowView(last_k),
                           [&](uint64_t item) {
                             return where.Matches(*attrs_, item);
                           });
}

ExactQueryEngine::ExactQueryEngine(const ExactAggregator* agg,
                                   const AttributeTable* attrs)
    : agg_(agg), attrs_(attrs) {
  DSKETCH_CHECK(agg != nullptr && attrs != nullptr);
}

int64_t ExactQueryEngine::Sum(const Predicate& where) const {
  int64_t sum = 0;
  for (const auto& [item, count] : agg_->counts()) {
    if (where.Matches(*attrs_, item)) sum += count;
  }
  return sum;
}

std::unordered_map<uint32_t, int64_t> ExactQueryEngine::GroupBy1(
    size_t dim, const Predicate& where) const {
  std::unordered_map<uint32_t, int64_t> out;
  for (const auto& [item, count] : agg_->counts()) {
    if (item >= attrs_->num_items()) continue;
    if (!where.Matches(*attrs_, item)) continue;
    out[attrs_->Get(item, dim)] += count;
  }
  return out;
}

std::unordered_map<uint64_t, int64_t> ExactQueryEngine::GroupBy2(
    size_t d1, size_t d2, const Predicate& where) const {
  std::unordered_map<uint64_t, int64_t> out;
  for (const auto& [item, count] : agg_->counts()) {
    if (item >= attrs_->num_items()) continue;
    if (!where.Matches(*attrs_, item)) continue;
    out[PackGroupKey(attrs_->Get(item, d1), attrs_->Get(item, d2))] += count;
  }
  return out;
}

}  // namespace dsketch
