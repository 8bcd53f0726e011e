// Pearson correlation, used by the locality analysis (paper
// §2.1, Fig 2): a negative correlation between per-minute sample density and
// per-minute mean latency indicates temporal clustering of low latency.
#pragma once

#include <span>

namespace autosens::stats {

/// Pearson product-moment correlation. Returns 0 when either input has zero
/// variance. Throws std::invalid_argument on size mismatch or n < 2.
double pearson(std::span<const double> x, std::span<const double> y);

}  // namespace autosens::stats
