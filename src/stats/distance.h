// Distances between binned distributions. AutoSens's core object is the
// divergence between the biased (B) and unbiased (U) latency distributions;
// these metrics quantify it as a scalar — useful as a cheap screening test
// ("is there any latency sensitivity in this slice at all?") before
// estimating a full preference curve, and for comparing estimators.
#pragma once

#include <span>

#include "stats/histogram.h"

namespace autosens::stats {

/// Total variation distance: 0.5 * sum |p_i - q_i| over normalized masses.
/// In [0, 1]. Throws std::invalid_argument on geometry mismatch or if either
/// histogram is empty.
double total_variation_distance(const Histogram& p, const Histogram& q);

/// Two-sample Kolmogorov–Smirnov statistic: max |CDF_p - CDF_q|. In [0, 1].
double ks_statistic(const Histogram& p, const Histogram& q);

/// First-moment shift: mean(p) - mean(q) (signed; negative when p leans to
/// lower values — the direction a latency-averse population produces).
double mean_shift(const Histogram& p, const Histogram& q);

}  // namespace autosens::stats
