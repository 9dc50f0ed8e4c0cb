// Probability proportional to size (PPS) machinery (paper §5.1).
//
// For a fixed sample size k over weights w, the optimal inclusion
// probabilities are the thresholded pi_i = min(1, alpha * w_i) with alpha
// chosen so that sum_i pi_i = k (heavy items are taken with certainty;
// the rest proportional to size). These targets serve as the theoretical
// reference curve in the inclusion-probability experiments (paper
// Fig. 2).

#ifndef DSKETCH_SAMPLING_PPS_H_
#define DSKETCH_SAMPLING_PPS_H_

#include <cstddef>
#include <vector>

namespace dsketch {

/// Thresholded PPS inclusion probabilities pi_i = min(1, alpha * w_i) with
/// sum pi = min(k, #positive weights). Zero-weight items get pi = 0.
/// Weights must be non-negative.
std::vector<double> ThresholdedPpsProbabilities(
    const std::vector<double>& weights, size_t k);

/// The alpha achieving sum_i min(1, alpha w_i) = min(k, #positive).
/// Returns 0 when every positive item must be taken (all pi capped at 1).
double ThresholdedPpsAlpha(const std::vector<double>& weights, size_t k);

/// Variance upper bound of the PPS subset-sum estimator for one item
/// (paper eq. 1): w_i^2 * (1 - pi_i) / pi_i, or 0 when pi_i = 0 or 1.
double PpsItemVariance(double weight, double inclusion_probability);

}  // namespace dsketch

#endif  // DSKETCH_SAMPLING_PPS_H_
