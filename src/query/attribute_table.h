// Dimension table mapping a dense unit-of-analysis id to its categorical
// attribute tuple. This is the "dimensions" side of the paper's motivating
// query (SELECT sum(metric) ... WHERE filters GROUP BY dimensions): the
// sketch stores unit ids; filters and group-bys are evaluated against this
// table at query time.

#ifndef DSKETCH_QUERY_ATTRIBUTE_TABLE_H_
#define DSKETCH_QUERY_ATTRIBUTE_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace dsketch {

/// Dense (item id 0..n-1) table of `num_dims` categorical attributes.
class AttributeTable {
 public:
  /// Empty table with `num_dims` dimensions.
  explicit AttributeTable(size_t num_dims);

  /// Appends one item's attribute tuple (size must equal num_dims());
  /// items receive consecutive ids starting at 0.
  uint64_t AddItem(const std::vector<uint32_t>& attrs);

  /// Attribute of `item` in dimension `dim`.
  uint32_t Get(uint64_t item, size_t dim) const;

  /// Number of dimensions.
  size_t num_dims() const { return num_dims_; }

  /// Number of items.
  size_t num_items() const { return flat_.size() / num_dims_; }

  /// Largest attribute value in `dim` plus one (its cardinality bound;
  /// 0 for an empty table). O(1): AddItem keeps it.
  uint64_t DimCardinality(size_t dim) const;

  /// The attribute tuples, row-major: item i's value in dimension d is
  /// data()[i * num_dims() + d]. Compiled predicates read it directly.
  const uint32_t* data() const { return flat_.data(); }

 private:
  size_t num_dims_;
  std::vector<uint32_t> flat_;          // row-major, num_items x num_dims
  std::vector<uint64_t> cardinality_;   // per dim: max value + 1
};

}  // namespace dsketch

#endif  // DSKETCH_QUERY_ATTRIBUTE_TABLE_H_
