#include "query/predicate.h"

#include <algorithm>

#include "util/logging.h"

namespace dsketch {

Predicate& Predicate::WhereEq(size_t dim, uint32_t value) {
  conditions_.push_back({dim, {value}});
  return *this;
}

Predicate& Predicate::WhereIn(size_t dim, std::vector<uint32_t> values) {
  DSKETCH_CHECK(!values.empty());
  std::sort(values.begin(), values.end());
  conditions_.push_back({dim, std::move(values)});
  return *this;
}

bool Predicate::Matches(const AttributeTable& table, uint64_t item) const {
  // Items the table does not describe satisfy no condition (they can
  // reach a query when sketch ids arrive from remote producers ahead of
  // the dimension load); the empty predicate still matches them.
  if (!conditions_.empty() && item >= table.num_items()) return false;
  for (const Condition& c : conditions_) {
    uint32_t v = table.Get(item, c.dim);
    if (c.values.size() == 1) {
      if (v != c.values[0]) return false;
    } else if (!std::binary_search(c.values.begin(), c.values.end(), v)) {
      return false;
    }
  }
  return true;
}

CompiledPredicate Predicate::Compile(const AttributeTable& table) const {
  CompiledPredicate out;
  if (conditions_.empty()) return out;
  if (table.num_items() == 0) {
    out.empty_answer_ = false;  // no item can satisfy a condition
    return out;
  }
  out.rows_ = table.data();
  out.num_dims_ = table.num_dims();
  out.num_items_ = table.num_items();
  out.words_.push_back(0);
  for (const Condition& c : conditions_) {
    DSKETCH_CHECK(c.dim < table.num_dims());
    // Values at or above the dimension's cardinality match no item
    // (values are sorted, so the in-range ones come first).
    const auto first = c.values.begin();
    const auto last = std::lower_bound(first, c.values.end(),
                                       table.DimCardinality(c.dim));
    const size_t named = static_cast<size_t>(last - first);
    CompiledPredicate::Condition compiled{c.dim, false, 0, 0, 0, 0};
    if (named > 0) {
      compiled.lo = *first;
      compiled.span = uint64_t{*(last - 1)} - *first + 1;
    }
    const uint64_t words = (compiled.span + 63) / 64;
    if (words <= named) {
      // No in-range value gives span 0: the condition probes word 0.
      compiled.offset = out.words_.size();
      compiled.size = static_cast<size_t>(words);
      out.words_.resize(compiled.offset + compiled.size, 0);
      for (auto v = first; v != last; ++v) {
        const uint32_t bit = *v - compiled.lo;
        out.words_[compiled.offset + (bit >> 6)] |= uint64_t{1} << (bit & 63);
      }
    } else {
      compiled.sorted = true;
      compiled.offset = out.values_.size();
      compiled.size = named;
      out.values_.insert(out.values_.end(), first, last);
    }
    out.conditions_.push_back(compiled);
  }
  return out;
}

}  // namespace dsketch
