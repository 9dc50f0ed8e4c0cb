// Filter predicates over attribute tuples: conjunctions of per-dimension
// equality / set-membership conditions — the arbitrary "WHERE filters" of
// the disaggregated subset sum problem.
//
// A query compiles its Predicate once against the table (Compile) and
// tests every sketch bin with the result: each condition becomes a bitset
// over the span of values it names, or a sorted list where those values
// are sparse, and a bin's test is one table read and one probe per
// condition, with no data-dependent branch. Predicate::Matches is the
// plain definition both must agree on.

#ifndef DSKETCH_QUERY_PREDICATE_H_
#define DSKETCH_QUERY_PREDICATE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "query/attribute_table.h"

namespace dsketch {

class Predicate;

/// A Predicate bound to one AttributeTable for one query. Agrees with
/// Predicate::Matches on every item. Borrows the table, which must
/// outlive it and stay unchanged while it is used.
///
/// Memory: values at or above DimCardinality(d) can match no item and
/// are dropped. A condition keeps the rest as a bitset over [lo, hi], the
/// smallest and largest of them, while that takes no more words than it
/// has values (at least one in 64 of the span named); otherwise as a
/// sorted list, probed by a fixed-length binary search. Either way a
/// condition holds at most 8 bytes per value it names and at most
/// ceil(DimCardinality(d) / 64) words, so neither a hostile client nor a
/// table holding values near 2^32 makes a query allocate more than twice
/// its request.
class CompiledPredicate {
 public:
  /// True when `item` satisfies every condition (see Predicate::Matches:
  /// items beyond the table match only the empty predicate).
  bool Matches(uint64_t item) const {
    if (conditions_.empty()) return empty_answer_;
    const uint64_t in_table = item < num_items_ ? 1 : 0;
    // Items beyond the table read row 0 instead and are masked off.
    const uint32_t* row = rows_ + (in_table != 0 ? item : 0) * num_dims_;
    uint64_t match = in_table;
    for (const Condition& c : conditions_) {
      // A condition's kind is fixed for the query, so this branch is the
      // same for every bin.
      match &= c.sorted ? InList(c, row[c.dim]) : InBitset(c, row[c.dim]);
    }
    return (match & 1) != 0;
  }

  /// Number of conditions compiled.
  size_t num_conditions() const { return conditions_.size(); }

  /// Heap bytes condition `i` keeps: its bitset words or sorted values.
  size_t condition_bytes(size_t i) const {
    const Condition& c = conditions_[i];
    return c.sorted ? c.size * sizeof(uint32_t) : c.size * sizeof(uint64_t);
  }

 private:
  friend class Predicate;

  struct Condition {
    size_t dim;
    bool sorted;      // values_[offset, offset + size) instead of words_
    uint32_t lo;      // bitset: the bit of value v is v - lo
    uint64_t span;    // bitset: values with v - lo >= span match nothing
    size_t offset;    // first word (or value) of this condition
    size_t size;      // words (or values) it keeps
  };

  uint64_t InBitset(const Condition& c, uint32_t v) const {
    // Values below lo wrap past the span; those outside it probe the
    // shared zero word.
    const uint32_t bit = v - c.lo;
    const size_t word = bit < c.span ? c.offset + (bit >> 6) : 0;
    return words_[word] >> (bit & 63);
  }

  uint64_t InList(const Condition& c, uint32_t v) const {
    // Halve toward the last value <= v (the first when all are larger);
    // the trip count depends only on the list's length.
    const uint32_t* base = values_.data() + c.offset;
    for (size_t n = c.size; n > 1; n -= n / 2) {
      base = base[n / 2] <= v ? base + n / 2 : base;
    }
    return *base == v ? 1 : 0;
  }

  // Answer for every item when no condition was compiled: true for the
  // empty predicate, false for conditions over an empty table.
  bool empty_answer_ = true;
  const uint32_t* rows_ = nullptr;
  size_t num_dims_ = 0;
  uint64_t num_items_ = 0;
  std::vector<Condition> conditions_;
  std::vector<uint64_t> words_;   // words_[0] == 0, then the bitsets
  std::vector<uint32_t> values_;  // the sorted lists, each non-empty
};

/// Conjunctive filter over dimensions of an AttributeTable.
class Predicate {
 public:
  /// The always-true predicate.
  Predicate() = default;

  /// Adds the condition attr[dim] == value; returns *this for chaining.
  Predicate& WhereEq(size_t dim, uint32_t value);

  /// Adds the condition attr[dim] IN values; returns *this for chaining.
  Predicate& WhereIn(size_t dim, std::vector<uint32_t> values);

  /// True if `item`'s attributes satisfy every condition. Items beyond
  /// the table (unknown unit ids, e.g. from remote producers) satisfy no
  /// condition; the empty predicate matches them regardless.
  bool Matches(const AttributeTable& table, uint64_t item) const;

  /// Compiles the predicate against `table` for a scan over many items.
  /// Every condition's dimension must be below table.num_dims().
  CompiledPredicate Compile(const AttributeTable& table) const;

  /// Number of conditions.
  size_t num_conditions() const { return conditions_.size(); }

 private:
  struct Condition {
    size_t dim;
    std::vector<uint32_t> values;  // sorted for binary search
  };
  std::vector<Condition> conditions_;
};

}  // namespace dsketch

#endif  // DSKETCH_QUERY_PREDICATE_H_
