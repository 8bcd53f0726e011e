// Percentile bootstrap over curves. The paper reports
// point estimates only; we add bootstrap confidence intervals so downstream
// users can tell signal from estimation noise (and so tests can assert that
// planted ground truth lies inside the interval).
#pragma once

#include <cstddef>
#include <functional>
#include <span>
#include <vector>

#include "stats/rng.h"

namespace autosens::stats {

/// A two-sided percentile interval.
struct Interval {
  double lo = 0.0;
  double hi = 0.0;
  bool contains(double v) const noexcept { return v >= lo && v <= hi; }
};

/// Bootstrap CIs for every point of a curve-valued statistic: `statistic`
/// maps a resampled index set (into the original sample) to a curve of fixed
/// length. `confidence` in (0,1), e.g. 0.95. Returns one Interval per curve
/// point. Throws on empty input or bad params. Replicate r draws from a
/// counter-seeded substream of `random`, so the intervals are byte-identical
/// for every `threads` value; with threads > 1 `statistic` must be safe to
/// call concurrently.
std::vector<Interval> bootstrap_curve_interval(
    std::size_t sample_size,
    const std::function<std::vector<double>(std::span<const std::size_t>)>& statistic,
    std::size_t replicates, double confidence, Random& random, std::size_t threads = 1);

}  // namespace autosens::stats
