#include "core/decayed_space_saving.h"

#include <cmath>
#include <unordered_map>
#include <utility>

#include "core/merge.h"
#include "util/logging.h"

namespace dsketch {
namespace {

// Advance the landmark whenever forward weights exceed this, to keep
// exp(lambda * (t - L)) far from overflow.
constexpr double kRenormThreshold = 1e100;

// Multiplies `sketch` by `factor`, clearing it when the factor (a decay
// across more than ~1075 half-lives) underflows double.
void ScaleOrClear(WeightedSpaceSaving& sketch, double factor) {
  if (factor > 0.0) {
    sketch.Scale(factor);
  } else {
    sketch.LoadEntries({});
  }
}

}  // namespace

DecayedSpaceSaving::DecayedSpaceSaving(size_t capacity, double half_life,
                                       uint64_t seed)
    : inner_(capacity, seed),
      half_life_(half_life),
      lambda_(std::log(2.0) / half_life) {
  DSKETCH_CHECK(half_life > 0.0);
}

DecayedSpaceSaving::DecayedSpaceSaving(WeightedSpaceSaving frame,
                                       double half_life, double landmark)
    : inner_(std::move(frame)),
      half_life_(half_life),
      lambda_(std::log(2.0) / half_life),
      landmark_(landmark),
      last_time_(landmark),
      started_(true) {
  DSKETCH_CHECK(half_life > 0.0);
}

double DecayedSpaceSaving::ForwardFactor(double timestamp) {
  if (!started_) {
    landmark_ = timestamp;
    last_time_ = timestamp;
    started_ = true;
  }
  DSKETCH_CHECK(timestamp >= last_time_);
  last_time_ = timestamp;

  double forward = std::exp(lambda_ * (timestamp - landmark_));
  if (forward > kRenormThreshold) {
    // Memorylessness of exponential decay: rescaling all counters by
    // exp(-lambda (timestamp - L)) and moving the landmark to `timestamp`
    // leaves every decayed estimate unchanged.
    ScaleOrClear(inner_, std::exp(-lambda_ * (timestamp - landmark_)));
    landmark_ = timestamp;
    forward = 1.0;
  }
  return forward;
}

void DecayedSpaceSaving::Update(uint64_t item, double timestamp,
                                double weight) {
  DSKETCH_CHECK(weight > 0.0);
  inner_.Update(item, ForwardFactor(timestamp) * weight);
}

void DecayedSpaceSaving::UpdateBatch(Span<const uint64_t> items,
                                     double timestamp, double weight) {
  if (items.empty()) return;
  DSKETCH_CHECK(weight > 0.0);
  // All rows share the timestamp, so the forward factor (and any landmark
  // renormalization) is computed once; per-row Update would recompute the
  // same exp() and take the same renorm branch on the first row.
  const double w = ForwardFactor(timestamp) * weight;
  inner_.UpdateBatch(items, w);
}

void DecayedSpaceSaving::UpdateBatch(Span<const WeightedEntry> rows,
                                     double timestamp) {
  if (rows.empty()) return;
  const double forward = ForwardFactor(timestamp);
  std::vector<WeightedEntry> weighted(rows.begin(), rows.end());
  for (WeightedEntry& row : weighted) row.weight *= forward;
  inner_.UpdateBatch(
      Span<const WeightedEntry>(weighted.data(), weighted.size()));
}

double DecayedSpaceSaving::DecayFactor(double query_time) const {
  DSKETCH_CHECK(query_time >= last_time_);
  return std::exp(-lambda_ * (query_time - landmark_));
}

double DecayedSpaceSaving::EstimateDecayedCount(uint64_t item,
                                                double query_time) const {
  return inner_.EstimateWeight(item) * DecayFactor(query_time);
}

std::vector<WeightedEntry> DecayedSpaceSaving::DecayedEntries(
    double query_time) const {
  double f = DecayFactor(query_time);
  std::vector<WeightedEntry> out = inner_.Entries();
  for (WeightedEntry& e : out) e.weight *= f;
  return out;
}

double DecayedSpaceSaving::TotalDecayedWeight(double query_time) const {
  return inner_.TotalWeight() * DecayFactor(query_time);
}

WeightedSpaceSaving DecayedSpaceSaving::DecayedSketch(
    double query_time) const {
  WeightedSpaceSaving out = inner_;
  ScaleOrClear(out, DecayFactor(query_time));
  return out;
}

DecayedSpaceSaving MergeDecayed(const std::vector<DecayedSpaceSaving>& parts,
                                size_t capacity, uint64_t seed) {
  DSKETCH_CHECK(!parts.empty());
  DecayedSpaceSaving out(capacity, parts.front().half_life_, seed);
  for (const DecayedSpaceSaving& part : parts) {
    DSKETCH_CHECK(part.half_life_ == out.half_life_);
    if (!part.started_) continue;
    if (!out.started_ || part.landmark_ > out.landmark_) {
      out.landmark_ = part.landmark_;
    }
    if (!out.started_ || part.last_time_ > out.last_time_) {
      out.last_time_ = part.last_time_;
    }
    out.started_ = true;
  }
  // Against the common landmark L* a row weighs g(t_i - L*) =
  // g(t_i - L) / g(L* - L): one factor per part.
  std::unordered_map<uint64_t, double> sums;
  for (const DecayedSpaceSaving& part : parts) {
    const double factor =
        std::exp(-out.lambda_ * (out.landmark_ - part.landmark_));
    if (!part.started_ || !(factor > 0.0)) continue;
    for (const WeightedEntry& e : part.inner_.Entries()) {
      sums[e.item] += e.weight * factor;
    }
  }
  std::vector<WeightedEntry> combined;
  for (const auto& [item, weight] : sums) {
    if (weight > 0.0) combined.push_back({item, weight});
  }
  out.inner_ = WeightedSketchFromEntries(std::move(combined), capacity, seed);
  return out;
}

}  // namespace dsketch
