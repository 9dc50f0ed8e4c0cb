// Query engines answering the paper's motivating SQL shape
//
//   SELECT sum(metric) FROM table WHERE filters GROUP BY dimensions
//
// over (a) an Unbiased Space Saving sketch — approximate, with variance
// and confidence intervals — and (b) an ExactAggregator — ground truth.
// Group-by keys are the attribute value (1-way) or a packed pair of
// attribute values (2-way), matching the marginal queries of Fig. 6.
//
// Each sketch query compiles its predicate once (CompiledPredicate) and
// walks the bins in place — the live view's or a frozen image's — with
// integer accumulation: Sum and SumWindow through core's SubsetSumOver,
// the group-bys through one per-group table. Nothing is copied per bin,
// and the answers are bit-identical to a double sum over Entries().

#ifndef DSKETCH_QUERY_ENGINE_H_
#define DSKETCH_QUERY_ENGINE_H_

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/subset_sum.h"
#include "core/unbiased_space_saving.h"
#include "query/attribute_table.h"
#include "query/exact_aggregator.h"
#include "query/frozen_source.h"
#include "query/predicate.h"
#include "query/sketch_source.h"
#include "query/windowed_source.h"
#include "wire/frozen.h"

namespace dsketch {

/// Packs two 32-bit group keys into one 64-bit key (d1 high, d2 low).
inline uint64_t PackGroupKey(uint32_t a, uint32_t b) {
  return (static_cast<uint64_t>(a) << 32) | b;
}

/// Approximate engine over a sketch plus dimension table.
class SketchQueryEngine {
 public:
  /// Both pointers must outlive the engine.
  SketchQueryEngine(const UnbiasedSpaceSaving* sketch,
                    const AttributeTable* attrs);

  /// Engine over a live source (sharded or windowed); queries run
  /// against source->View(), so they always see every ingested row.
  /// Both pointers must outlive the engine.
  SketchQueryEngine(SketchSource* source, const AttributeTable* attrs);

  /// Engine over a windowed source: Sum / GroupBy see the full-window
  /// merge (the source's View), and SumWindow scopes to the newest
  /// last_k epochs. Both pointers must outlive the engine.
  SketchQueryEngine(WindowedSketchSource* source, const AttributeTable* attrs);

  /// Engine over a frozen image (read replica): Sum / GroupBy run
  /// straight off the image — zero decode, answers bit-identical to an
  /// engine over the thawed sketch. Both pointers must outlive the
  /// engine.
  SketchQueryEngine(const FrozenSketchSource* source,
                    const AttributeTable* attrs);

  /// SELECT sum(1) WHERE `where`.
  SubsetSumEstimate Sum(const Predicate& where) const;

  /// SELECT sum(1) GROUP BY dim WHERE `where`; key = attribute value.
  std::unordered_map<uint32_t, SubsetSumEstimate> GroupBy1(
      size_t dim, const Predicate& where = Predicate()) const;

  /// Two-dimensional group-by; key = PackGroupKey(attr[d1], attr[d2]).
  std::unordered_map<uint64_t, SubsetSumEstimate> GroupBy2(
      size_t d1, size_t d2, const Predicate& where = Predicate()) const;

  /// SELECT sum(1) WHERE `where` over the newest `last_k` epochs
  /// (0 = the full window). Requires the windowed constructor.
  SubsetSumEstimate SumWindow(size_t last_k,
                              const Predicate& where = Predicate()) const;

 private:
  // The live sketch queries run against: `sketch_` when constructed from
  // a borrowed sketch, otherwise `source_->View()` resolved per query.
  const UnbiasedSpaceSaving& QuerySketch() const;

  // The one group-by body: walks the frozen image's entries when there
  // is one, else the live view's, in place, with the compiled predicate
  // and integer per-group sums, then calls emit(key, estimate) per
  // group. Frozen and thawed walks share it, so their answers are
  // bit-identical.
  template <typename KeyFn, typename Emit>
  void GroupByImpl(const Predicate& where, KeyFn&& key_of, Emit&& emit) const;

  const UnbiasedSpaceSaving* sketch_;
  SketchSource* source_;
  WindowedSketchSource* window_source_;
  // Set for the frozen constructor: Sum / GroupBy read the image
  // directly instead of a live sketch.
  const wire::FrozenView* frozen_;
  const AttributeTable* attrs_;
};

/// Exact engine with the same query surface (returns true sums).
class ExactQueryEngine {
 public:
  /// Both pointers must outlive the engine.
  ExactQueryEngine(const ExactAggregator* agg, const AttributeTable* attrs);

  /// Exact SELECT sum(1) WHERE `where`.
  int64_t Sum(const Predicate& where) const;

  /// Exact 1-way group-by.
  std::unordered_map<uint32_t, int64_t> GroupBy1(
      size_t dim, const Predicate& where = Predicate()) const;

  /// Exact 2-way group-by (keys packed as in PackGroupKey).
  std::unordered_map<uint64_t, int64_t> GroupBy2(
      size_t d1, size_t d2, const Predicate& where = Predicate()) const;

 private:
  const ExactAggregator* agg_;
  const AttributeTable* attrs_;
};

}  // namespace dsketch

#endif  // DSKETCH_QUERY_ENGINE_H_
