#include "query/attribute_table.h"

#include <algorithm>

#include "util/logging.h"

namespace dsketch {

AttributeTable::AttributeTable(size_t num_dims)
    : num_dims_(num_dims), cardinality_(num_dims, 0) {
  DSKETCH_CHECK(num_dims > 0);
}

uint64_t AttributeTable::AddItem(const std::vector<uint32_t>& attrs) {
  DSKETCH_CHECK(attrs.size() == num_dims_);
  uint64_t id = num_items();
  flat_.insert(flat_.end(), attrs.begin(), attrs.end());
  for (size_t d = 0; d < num_dims_; ++d) {
    cardinality_[d] = std::max(cardinality_[d], uint64_t{attrs[d]} + 1);
  }
  return id;
}

uint32_t AttributeTable::Get(uint64_t item, size_t dim) const {
  DSKETCH_DCHECK(item < num_items() && dim < num_dims_);
  return flat_[item * num_dims_ + dim];
}

uint64_t AttributeTable::DimCardinality(size_t dim) const {
  DSKETCH_CHECK(dim < num_dims_);
  return cardinality_[dim];
}

}  // namespace dsketch
