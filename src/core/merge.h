// Merge operations and reduction primitives (paper §5.3, §5.5).
//
// All frequent-item sketches share the shape "exact increment, then a
// reduction that shrinks the bin set" (Algorithm 2). Theorem 2 shows any
// reduction whose post-reduction expected estimates equal the
// pre-reduction estimates yields an unbiased sketch. This module provides
// three reductions over (item, count) entry sets and the sketch-level
// merges built from them:
//
//  * ReducePairwise      — repeatedly PPS-collapse the two smallest bins
//                          (the generalization of USS's own update rule);
//                          unbiased, preserves the total count exactly,
//                          keeps integer counts.
//  * ReducePriority      — priority sampling over bins with the max(c, tau)
//                          Horvitz-Thompson estimator; unbiased, real-valued
//                          outputs, does not preserve the total exactly.
//  * ReduceMisraGries    — the Agarwal et al. soft-threshold merge used by
//                          the deterministic sketches; biased downward but
//                          deterministic-guarantee preserving.
//
// A multi-way merge copies every part's bins, in place, into one
// buffer. When the parts can share a label, the integer-count merges
// then sort the buffer by label and sum adjacent duplicates
// (CombineByItem); parts that are known to be label-disjoint, such as a
// hash-partitioned shard fleet, skip that step (PartLabels::kDisjoint).
// The label sort, the canonical (count, item) sort before a reduction,
// and LoadEntries' sort all go through core/entry_order's radix
// SortEntries. Labels are distinct once combined, so (count, item) is a
// total order and the reduction's RNG draws follow from the entry
// multiset and the seed alone: skipping the combine for disjoint parts
// changes no output byte.

#ifndef DSKETCH_CORE_MERGE_H_
#define DSKETCH_CORE_MERGE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/deterministic_space_saving.h"
#include "core/sketch_entry.h"
#include "core/unbiased_space_saving.h"
#include "core/weighted_space_saving.h"
#include "util/random.h"

namespace dsketch {

/// Whether the parts of a multi-way merge can share a label.
enum class PartLabels {
  kMayRepeat,  ///< any parts: duplicate labels are summed before reducing
  kDisjoint,   ///< no label is in two parts (the caller guarantees it)
};

/// Concatenates two entry sets, summing counts of duplicate labels. The
/// result is in label order, one entry per label.
std::vector<SketchEntry> CombineEntries(const std::vector<SketchEntry>& a,
                                        const std::vector<SketchEntry>& b);

/// Unbiased reduction to at most `target` bins by repeatedly collapsing
/// the two smallest bins into one whose label is chosen with probability
/// proportional to the collapsed counts. Preserves the total exactly.
/// When a reduction actually runs, entries are first brought into the
/// canonical (count, item) order, so the result is a function of the
/// entry *multiset* and the Rng state alone — cached-partial merges
/// reproduce from-scratch merges bit-for-bit. Under-target input is
/// returned unchanged (order included).
std::vector<SketchEntry> ReducePairwise(std::vector<SketchEntry> entries,
                                        size_t target, Rng& rng);

/// Builds a fresh sketch from pre-combined entry sums: canonical
/// (count, item) order, one pairwise reduction seeded by `seed`, then
/// LoadEntries. This is the single definition of "merge these entry
/// sums" — Merge, MergeAll, and the windowed merge cache all route
/// through it, which is what keeps their outputs bit-identical for the
/// same multiset + seed.
UnbiasedSpaceSaving SketchFromEntries(std::vector<SketchEntry> combined,
                                      size_t capacity, uint64_t seed);

/// Weighted analogue of SketchFromEntries (canonical (weight, item)
/// order + ReducePairwiseWeighted + LoadEntries).
WeightedSpaceSaving WeightedSketchFromEntries(
    std::vector<WeightedEntry> combined, size_t capacity, uint64_t seed);

/// Unbiased reduction to at most `target` bins via priority sampling
/// (priorities c_i/u_i, threshold tau = (target+1)-th priority, estimate
/// max(c_i, tau)). Returns real-valued adjusted weights.
std::vector<WeightedEntry> ReducePriority(
    const std::vector<SketchEntry>& entries, size_t target, Rng& rng);

/// Misra-Gries style reduction: subtracts the (target+1)-th largest count
/// from every entry and drops non-positive results (biased downward;
/// deterministic error guarantee preserved).
std::vector<SketchEntry> ReduceMisraGries(std::vector<SketchEntry> entries,
                                          size_t target);

/// Unbiased merge of two Unbiased Space Saving sketches into a fresh
/// sketch with `capacity` bins (pairwise reduction; Theorem 2).
UnbiasedSpaceSaving Merge(const UnbiasedSpaceSaving& a,
                          const UnbiasedSpaceSaving& b, size_t capacity,
                          uint64_t seed = 1);

/// Merge of deterministic sketches via the Misra-Gries soft threshold
/// (biased, deterministic guarantees).
DeterministicSpaceSaving Merge(const DeterministicSpaceSaving& a,
                               const DeterministicSpaceSaving& b,
                               size_t capacity, uint64_t seed = 1);

/// Unbiased merge of many sketches (fold with a single final reduction —
/// combines all entries first, then reduces once, which adds less noise
/// than repeated binary merges). With PartLabels::kDisjoint the entries
/// go to the reduction without the label combine; the result is the
/// same, byte for byte, as long as no label is in two sketches.
UnbiasedSpaceSaving MergeAll(
    const std::vector<const UnbiasedSpaceSaving*>& sketches, size_t capacity,
    uint64_t seed = 1, PartLabels labels = PartLabels::kMayRepeat);

/// Weighted analogue of MergeAll: sums the weights of duplicate labels
/// (unless kDisjoint), drops bins without positive weight, then one
/// ReducePairwiseWeighted reduction. Preserves the total weight.
WeightedSpaceSaving MergeAll(
    const std::vector<const WeightedSpaceSaving*>& sketches, size_t capacity,
    uint64_t seed = 1, PartLabels labels = PartLabels::kMayRepeat);

/// Real-valued analogue of ReducePairwise for weighted entries: unbiased,
/// preserves the total weight exactly (up to fp rounding).
std::vector<WeightedEntry> ReducePairwiseWeighted(
    std::vector<WeightedEntry> entries, size_t target, Rng& rng);

/// Unbiased merge of two weighted sketches (also covers time-decayed
/// sketches after rescaling both to a common landmark).
WeightedSpaceSaving Merge(const WeightedSpaceSaving& a,
                          const WeightedSpaceSaving& b, size_t capacity,
                          uint64_t seed = 1);

}  // namespace dsketch

#endif  // DSKETCH_CORE_MERGE_H_
