// Fixed-width weighted 1-D histogram — the core data structure behind the
// biased (B) and unbiased (U) latency distributions (paper §2.2–2.3).
//
// Bins are [lo + i*w, lo + (i+1)*w). Values below `lo` clamp into bin 0 and
// values at or beyond the upper edge clamp into the last bin, so total weight
// is conserved; AutoSens relies on that when it compares bin-wise ratios.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace autosens::stats {

class Histogram {
 public:
  /// A histogram over [lo, lo + bin_count*bin_width) with `bin_count` bins.
  /// Throws std::invalid_argument on non-positive width or zero bins.
  Histogram(double lo, double bin_width, std::size_t bin_count);

  /// Convenience: covers [lo, hi) with bins of `bin_width` (last bin may
  /// extend past hi so that the full range is covered).
  static Histogram covering(double lo, double hi, double bin_width);

  void add(double value, double weight = 1.0) noexcept;
  void add_all(std::span<const double> values) noexcept;
  /// Add every value with the same weight.
  void add_all(std::span<const double> values, double weight) noexcept;
  /// Add values[i] with weight weights[i]. Spans must be the same length
  /// (asserted in debug builds); release builds bound the loop by the
  /// shorter span so no out-of-range weight is ever read. Bin weights
  /// accumulate in element order; the running total uses the fixed
  /// interleaved reduction (core::simd::sum_interleaved), so it can differ
  /// from a sequence of elementwise add() calls in the last ulp.
  void add_all(std::span<const double> values, std::span<const double> weights) noexcept;

  /// Add `weight` directly into bin `i` (no bin search) — for fused passes
  /// that batch-compute bin indices via core::simd::bin_indices. `i` must be
  /// a valid bin.
  void add_at(std::size_t i, double weight = 1.0) noexcept {
    counts_[i] += weight;
    total_ += weight;
  }

  /// Bin index a value falls into (clamped to [0, size-1]; NaN maps to 0).
  std::size_t bin_index(double value) const noexcept;
  /// Inclusive-left edge of bin i.
  double bin_left(std::size_t i) const noexcept { return lo_ + static_cast<double>(i) * width_; }
  /// Center of bin i.
  double bin_center(std::size_t i) const noexcept {
    return lo_ + (static_cast<double>(i) + 0.5) * width_;
  }

  double lo() const noexcept { return lo_; }
  double bin_width() const noexcept { return width_; }
  std::size_t size() const noexcept { return counts_.size(); }
  double count(std::size_t i) const noexcept { return counts_[i]; }
  std::span<const double> counts() const noexcept { return counts_; }
  double total_weight() const noexcept { return total_; }

  /// Overwrite the weight of one bin (used by the α-normalization step,
  /// which rescales per-slot counts). Keeps total weight consistent.
  void set_count(std::size_t i, double weight) noexcept;
  /// Multiply every bin by `factor` (α-normalization of a whole slot).
  void scale(double factor) noexcept;

  /// Add another histogram bin-wise. Throws if geometry differs.
  void merge(const Histogram& other);

  /// Probability density per bin: count / (total * bin_width).
  /// Returns all-zero if the histogram is empty.
  std::vector<double> pdf() const;
  /// Cumulative distribution evaluated at each bin's right edge.
  std::vector<double> cdf() const;
  /// Linear-interpolated quantile (q in [0,1]) from the CDF.
  /// Throws std::invalid_argument if q outside [0,1] or histogram empty.
  double quantile(double q) const;
  /// Weighted mean of bin centers.
  double mean() const noexcept;

 private:
  double lo_;
  double width_;
  std::vector<double> counts_;
  double total_ = 0.0;
};

}  // namespace autosens::stats
