// Latency preference (§2.3): the bin-wise ratio B/U of the biased and
// unbiased distributions, Savitzky–Golay smoothed, then normalized at the
// reference latency into the paper's headline metric — the normalized
// latency preference. A value of 0.8 at latency L means users are 20 % less
// active at L than at the reference, all else equal.
#pragma once

#include <cstddef>
#include <vector>

#include "core/options.h"
#include "stats/histogram.h"

namespace autosens::core {

struct PreferenceResult {
  std::vector<double> latency_ms;   ///< Bin centers.
  std::vector<double> raw_ratio;    ///< B/U per bin (0 where unsupported).
  std::vector<double> smoothed;     ///< SG-filtered ratio over the support.
  std::vector<double> normalized;   ///< smoothed / smoothed(reference).
  std::vector<char> valid;          ///< 1 where the bin had support.
  double reference_latency_ms = 0.0;
  std::size_t biased_samples = 0;   ///< Total B count (before weighting).
  std::size_t support_begin = 0;    ///< First bin of the supported range.
  std::size_t support_end = 0;      ///< One past the last supported bin.

  /// Normalized preference at a latency (linear interpolation between bin
  /// centers). Throws std::out_of_range outside the supported range.
  double at(double latency) const;
  /// Whether `latency` lies in the supported range.
  bool covers(double latency) const noexcept;
};

/// Compute the preference curve from the biased and unbiased histograms.
/// The histograms must share geometry. Throws std::invalid_argument if the
/// supported range is empty or does not include the reference latency, or
/// if a support guard is negative or NaN.
PreferenceResult compute_preference(const stats::Histogram& biased,
                                    const stats::Histogram& unbiased,
                                    const AutoSensOptions& options);

}  // namespace autosens::core
