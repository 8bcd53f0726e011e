#include "stats/histogram.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

#include "core/simd.h"

namespace autosens::stats {

Histogram::Histogram(double lo, double bin_width, std::size_t bin_count)
    : lo_(lo), width_(bin_width), counts_(bin_count, 0.0) {
  if (!(bin_width > 0.0)) {
    throw std::invalid_argument("Histogram: bin_width must be positive");
  }
  if (bin_count == 0) {
    throw std::invalid_argument("Histogram: bin_count must be nonzero");
  }
}

Histogram::Histogram(double lo, double bin_width, std::size_t bin_count,
                     std::vector<double>&& buffer)
    : lo_(lo), width_(bin_width), counts_(std::move(buffer)) {
  if (!(bin_width > 0.0)) {
    throw std::invalid_argument("Histogram: bin_width must be positive");
  }
  if (bin_count == 0) {
    throw std::invalid_argument("Histogram: bin_count must be nonzero");
  }
  counts_.assign(bin_count, 0.0);
}

Histogram Histogram::covering(double lo, double hi, double bin_width) {
  if (!(hi > lo)) throw std::invalid_argument("Histogram::covering: hi must exceed lo");
  if (!(bin_width > 0.0)) {
    throw std::invalid_argument("Histogram::covering: bin_width must be positive");
  }
  const auto bins = static_cast<std::size_t>(std::ceil((hi - lo) / bin_width));
  return Histogram(lo, bin_width, std::max<std::size_t>(bins, 1));
}

Histogram Histogram::covering(double lo, double hi, double bin_width,
                              std::vector<double>&& buffer) {
  if (!(hi > lo)) throw std::invalid_argument("Histogram::covering: hi must exceed lo");
  if (!(bin_width > 0.0)) {
    throw std::invalid_argument("Histogram::covering: bin_width must be positive");
  }
  const auto bins = static_cast<std::size_t>(std::ceil((hi - lo) / bin_width));
  return Histogram(lo, bin_width, std::max<std::size_t>(bins, 1), std::move(buffer));
}

std::vector<double> Histogram::release_counts() noexcept {
  std::vector<double> out = std::move(counts_);
  counts_.assign(1, 0.0);
  total_ = 0.0;
  return out;
}

std::size_t Histogram::bin_index(double value) const noexcept {
  return core::simd::bin_index_scalar(value, lo_, width_, counts_.size());
}

void Histogram::add(double value, double weight) noexcept {
  counts_[bin_index(value)] += weight;
  total_ += weight;
}

void Histogram::add_all(std::span<const double> values) noexcept {
  core::simd::histogram_fill(values, lo_, width_, counts_);
  total_ += static_cast<double>(values.size());
}

void Histogram::add_all(std::span<const double> values, double weight) noexcept {
  core::simd::histogram_fill_const(values, weight, lo_, width_, counts_);
  total_ += weight * static_cast<double>(values.size());
}

void Histogram::add_all(std::span<const double> values,
                        std::span<const double> weights) noexcept {
  assert(values.size() == weights.size() &&
         "Histogram::add_all: values/weights length mismatch");
  const std::size_t n = std::min(values.size(), weights.size());
  total_ += core::simd::histogram_fill_weighted(values.first(n), weights.first(n),
                                                lo_, width_, counts_);
}

void Histogram::set_count(std::size_t i, double weight) noexcept {
  total_ += weight - counts_[i];
  counts_[i] = weight;
}

void Histogram::scale(double factor) noexcept {
  for (double& count : counts_) count *= factor;
  total_ *= factor;
}

void Histogram::merge(const Histogram& other) {
  if (other.lo_ != lo_ || other.width_ != width_ || other.counts_.size() != counts_.size()) {
    throw std::invalid_argument("Histogram::merge: geometry mismatch");
  }
  for (std::size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
  total_ += other.total_;
}

std::vector<double> Histogram::pdf() const {
  std::vector<double> density(counts_.size(), 0.0);
  if (total_ <= 0.0) return density;
  const double norm = 1.0 / (total_ * width_);
  for (std::size_t i = 0; i < counts_.size(); ++i) density[i] = counts_[i] * norm;
  return density;
}

std::vector<double> Histogram::cdf() const {
  std::vector<double> cumulative(counts_.size(), 0.0);
  double running = 0.0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    running += counts_[i];
    cumulative[i] = total_ > 0.0 ? running / total_ : 0.0;
  }
  return cumulative;
}

double Histogram::quantile(double q) const {
  if (q < 0.0 || q > 1.0) throw std::invalid_argument("Histogram::quantile: q outside [0,1]");
  if (total_ <= 0.0) throw std::invalid_argument("Histogram::quantile: empty histogram");
  double running = 0.0;
  const double target = q * total_;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    if (running + counts_[i] >= target) {
      const double within = counts_[i] > 0.0 ? (target - running) / counts_[i] : 0.0;
      return bin_left(i) + within * width_;
    }
    running += counts_[i];
  }
  return bin_left(counts_.size() - 1) + width_;
}

double Histogram::mean() const noexcept {
  if (total_ <= 0.0) return 0.0;
  double sum = 0.0;
  for (std::size_t i = 0; i < counts_.size(); ++i) sum += counts_[i] * bin_center(i);
  return sum / total_;
}

}  // namespace autosens::stats
