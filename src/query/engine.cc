#include "query/engine.h"

#include <unordered_map>
#include <vector>

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
  const CompiledPredicate match = where.Compile(*attrs_);
  auto matches = [&match](uint64_t item) { return match.Matches(item); };
  // The frozen image and the live view run the same kernel over the
  // same entry order, so frozen answers are bit-identical to thawed ones.
  if (frozen_ != nullptr) {
    return SubsetSumOver(*frozen_, frozen_->min_count(), matches);
  }
  const UnbiasedSpaceSaving& sketch = QuerySketch();
  return SubsetSumOver(sketch, sketch.MinCount(), matches);
}

namespace {

// Integer per-group sums and C_S, one accumulator per group key in
// first-seen order, found through a hash index; GroupBy1 and GroupBy2
// both fill one.
class GroupSums {
 public:
  void Add(uint64_t key, int64_t count) {
    Group& g = groups_[IndexOf(key)];
    g.sum += static_cast<uint64_t>(count);  // wraps like SubsetSumOver
    ++g.items;
  }

  /// Calls emit(key, estimate) once per group (eq. 5 per group).
  template <typename Emit>
  void ForEach(int64_t min_count, Emit&& emit) const {
    for (const Group& g : groups_) {
      emit(g.key,
           FinishSubsetSum(static_cast<int64_t>(g.sum), g.items, min_count));
    }
  }

 private:
  struct Group {
    uint64_t key;
    uint64_t sum;
    uint64_t items;
  };

  uint32_t IndexOf(uint64_t key) {
    const auto [it, added] =
        index_.try_emplace(key, static_cast<uint32_t>(groups_.size()));
    if (added) groups_.push_back({key, 0, 0});
    return it->second;
  }

  std::unordered_map<uint64_t, uint32_t> index_;
  std::vector<Group> groups_;
};

}  // namespace

template <typename KeyFn, typename Emit>
void SketchQueryEngine::GroupByImpl(const Predicate& where, KeyFn&& key_of,
                                    Emit&& emit) const {
  const CompiledPredicate match = where.Compile(*attrs_);
  const uint64_t num_items = attrs_->num_items();
  GroupSums sums;
  auto add = [&](uint64_t item, int64_t count) {
    // Items the table does not describe belong to no group.
    if (item < num_items && match.Matches(item)) sums.Add(key_of(item), count);
    return true;
  };
  int64_t min_count;
  if (frozen_ != nullptr) {
    frozen_->ForEachEntry(add);
    min_count = frozen_->min_count();
  } else {
    const UnbiasedSpaceSaving& sketch = QuerySketch();
    sketch.ForEachEntry(add);
    min_count = sketch.MinCount();
  }
  sums.ForEach(min_count, emit);
}

std::unordered_map<uint32_t, SubsetSumEstimate> SketchQueryEngine::GroupBy1(
    size_t dim, const Predicate& where) const {
  DSKETCH_CHECK(dim < attrs_->num_dims());
  const uint32_t* rows = attrs_->data();
  const size_t dims = attrs_->num_dims();
  std::unordered_map<uint32_t, SubsetSumEstimate> out;
  GroupByImpl(
      where, [&](uint64_t item) { return uint64_t{rows[item * dims + dim]}; },
      [&](uint64_t key, const SubsetSumEstimate& est) {
        out.emplace(static_cast<uint32_t>(key), est);
      });
  return out;
}

std::unordered_map<uint64_t, SubsetSumEstimate> SketchQueryEngine::GroupBy2(
    size_t d1, size_t d2, const Predicate& where) const {
  DSKETCH_CHECK(d1 < attrs_->num_dims() && d2 < attrs_->num_dims());
  const uint32_t* rows = attrs_->data();
  const size_t dims = attrs_->num_dims();
  std::unordered_map<uint64_t, SubsetSumEstimate> out;
  GroupByImpl(
      where,
      [&](uint64_t item) {
        const uint32_t* row = rows + item * dims;
        return PackGroupKey(row[d1], row[d2]);
      },
      [&](uint64_t key, const SubsetSumEstimate& est) {
        out.emplace(key, est);
      });
  return out;
}

SubsetSumEstimate SketchQueryEngine::SumWindow(size_t last_k,
                                               const Predicate& where) const {
  DSKETCH_CHECK(window_source_ != nullptr);
  const CompiledPredicate match = where.Compile(*attrs_);
  const UnbiasedSpaceSaving& view = window_source_->WindowView(last_k);
  return SubsetSumOver(view, view.MinCount(), [&match](uint64_t item) {
    return match.Matches(item);
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
