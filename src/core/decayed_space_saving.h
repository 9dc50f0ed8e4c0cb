// Time-decayed Unbiased Space Saving via forward decay (paper §5.3;
// Cormode, Shkapenyuk, Srivastava & Xu 2009).
//
// Forward decay weights a row arriving at time t_i by g(t_i - L) for a
// fixed landmark L <= t_i; a query at time t reports counters divided by
// g(t - L), so each row contributes g(t_i - L)/g(t - L) — for exponential
// g this equals exp(-lambda (t - t_i)), the usual backward exponential
// decay. Because the weighting is computed *forward*, counters are
// append-only and the weighted Space Saving reduction applies unchanged;
// the sketch stays unbiased for decayed subset sums.
//
// Exponential g is memoryless, which lets the sketch periodically advance
// the landmark and rescale counters to avoid overflow, and lets sketches
// with different landmarks merge after one rescale each (MergeDecayed).

#ifndef DSKETCH_CORE_DECAYED_SPACE_SAVING_H_
#define DSKETCH_CORE_DECAYED_SPACE_SAVING_H_

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/sketch_entry.h"
#include "core/weighted_space_saving.h"
#include "util/span.h"

namespace dsketch {

/// A usable half-life setting: 0 (decay off), or one whose per-unit
/// factor 2^(-1/half_life) does not underflow double (half-lives below
/// ~0.00094 would wipe all older mass each unit). Rejects < 0 and NaN.
inline bool ValidHalfLife(double half_life) {
  return half_life == 0.0 || std::exp2(-1.0 / half_life) > 0.0;
}

/// Exponentially time-decayed Unbiased Space Saving sketch.
class DecayedSpaceSaving {
 public:
  /// `half_life` is the time for a row's influence to halve (> 0).
  DecayedSpaceSaving(size_t capacity, double half_life, uint64_t seed = 1);

  /// Adopts `frame`, masses as of time `landmark` (= forward weights
  /// against it), e.g. a restored snapshot. Later rows may not predate it.
  DecayedSpaceSaving(WeightedSpaceSaving frame, double half_life,
                     double landmark);

  /// Processes a row for `item` observed at `timestamp` (non-decreasing
  /// across calls) carrying `weight` (> 0, default 1).
  void Update(uint64_t item, double timestamp, double weight = 1.0);

  /// Processes `items` as rows sharing one `timestamp` (the common shape
  /// for epoch/batch ingest) each carrying `weight`. Bit-for-bit identical
  /// to per-row Update, and additionally amortizes the forward-decay
  /// exp() over the whole batch.
  void UpdateBatch(Span<const uint64_t> items, double timestamp,
                   double weight = 1.0);

  /// (item, weight > 0) rows sharing one `timestamp`, applied in order.
  void UpdateBatch(Span<const WeightedEntry> rows, double timestamp);

  /// Unbiased estimate of the decayed count of `item` as of `query_time`
  /// (>= the last update timestamp): sum over the item's rows of
  /// weight * 2^{-(query_time - t_i)/half_life}.
  double EstimateDecayedCount(uint64_t item, double query_time) const;

  /// All labeled bins with decayed weights as of `query_time`, descending.
  std::vector<WeightedEntry> DecayedEntries(double query_time) const;

  /// Total decayed mass as of `query_time` (preserved exactly).
  double TotalDecayedWeight(double query_time) const;

  /// Weighted sketch of the decayed masses as of `query_time` (empty once
  /// they underflow double).
  WeightedSpaceSaving DecayedSketch(double query_time) const;

  /// True if `item` currently labels a bin.
  bool Contains(uint64_t item) const { return inner_.Contains(item); }

  /// Number of bins.
  size_t capacity() const { return inner_.capacity(); }

  /// Number of labeled bins.
  size_t size() const { return inner_.size(); }

  /// The configured half-life.
  double half_life() const { return half_life_; }

 private:
  friend DecayedSpaceSaving MergeDecayed(
      const std::vector<DecayedSpaceSaving>& parts, size_t capacity,
      uint64_t seed);

  // Registers `timestamp`, renormalizing the landmark if needed, and
  // returns the forward factor g(timestamp - L) a row carries.
  double ForwardFactor(double timestamp);

  double DecayFactor(double query_time) const;

  WeightedSpaceSaving inner_;
  double half_life_;
  double lambda_;
  double landmark_ = 0.0;
  double last_time_ = 0.0;
  bool started_ = false;
};

/// Unbiased merge of decayed sketches sharing one half-life: each part is
/// rescaled once to the newest landmark among them (a factor that
/// underflows drops the part), then one weighted pairwise reduction to
/// `capacity` bins seeded by `seed`.
DecayedSpaceSaving MergeDecayed(const std::vector<DecayedSpaceSaving>& parts,
                                size_t capacity, uint64_t seed);

}  // namespace dsketch

#endif  // DSKETCH_CORE_DECAYED_SPACE_SAVING_H_
