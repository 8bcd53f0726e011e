#include "stats/savitzky_golay.h"

#include <algorithm>
#include <stdexcept>

#include "stats/linalg.h"

namespace autosens::stats {
namespace {

/// Window offsets -h..h as doubles.
std::vector<double> window_offsets(std::size_t window) {
  const auto h = static_cast<std::ptrdiff_t>(window / 2);
  std::vector<double> x;
  x.reserve(window);
  for (std::ptrdiff_t i = -h; i <= h; ++i) x.push_back(static_cast<double>(i));
  return x;
}

}  // namespace

SavitzkyGolay::SavitzkyGolay(SavitzkyGolayOptions options) : options_(options) {
  if (options_.window % 2 == 0 || options_.window == 0) {
    throw std::invalid_argument("SavitzkyGolay: window must be odd");
  }
  if (options_.degree >= options_.window) {
    throw std::invalid_argument("SavitzkyGolay: degree must be smaller than window");
  }
  // The smoothing weight of sample j is the value at x_j of the polynomial
  // whose coefficients are row 0 of (A^T A)^{-1}: w_j = sum_k m_k x_j^k with
  // (A^T A) m = e_0, where A is the Vandermonde matrix over the offsets.
  const auto offsets = window_offsets(options_.window);
  const std::size_t terms = options_.degree + 1;
  Matrix ata(terms, terms);
  for (std::size_t r = 0; r < terms; ++r) {
    for (std::size_t c = 0; c < terms; ++c) {
      double sum = 0.0;
      for (const double x : offsets) {
        double p = 1.0;
        for (std::size_t k = 0; k < r + c; ++k) p *= x;
        sum += p;
      }
      ata.at(r, c) = sum;
    }
  }
  std::vector<double> e0(terms, 0.0);
  e0[0] = 1.0;
  const auto m = cholesky_solve(ata, e0);
  kernel_.reserve(options_.window);
  for (const double x : offsets) kernel_.push_back(polyval(m, x));
}

std::vector<double> SavitzkyGolay::smooth(std::span<const double> signal) const {
  const std::size_t n = signal.size();
  if (n == 0) return {};
  const std::size_t window = options_.window;
  if (n < window) {
    // Too short for convolution: fit one polynomial to the whole signal.
    const std::size_t degree = std::min(options_.degree, n - 1);
    std::vector<double> x(n);
    for (std::size_t i = 0; i < n; ++i) x[i] = static_cast<double>(i);
    const auto coeffs = polyfit(x, signal, degree);
    std::vector<double> out(n);
    for (std::size_t i = 0; i < n; ++i) out[i] = polyval(coeffs, x[i]);
    return out;
  }

  const std::size_t h = window / 2;
  std::vector<double> out(n, 0.0);
  // Interior: valid-mode FIR convolution with the precomputed kernel,
  // out[h + t] = sum_j kernel[j] * signal[t + j], accumulated over j in
  // order with separate multiply and add (no FMA contraction).
  for (std::size_t t = 0; t + window <= n; ++t) {
    double sum = 0.0;
    for (std::size_t j = 0; j < window; ++j) sum += kernel_[j] * signal[t + j];
    out[h + t] = sum;
  }
  // Edges ("interp" mode): fit one polynomial to each terminal window and
  // evaluate it at the uncovered positions.
  std::vector<double> x(window);
  for (std::size_t i = 0; i < window; ++i) x[i] = static_cast<double>(i);
  const auto head = polyfit(x, signal.subspan(0, window), options_.degree);
  for (std::size_t i = 0; i < h; ++i) out[i] = polyval(head, static_cast<double>(i));
  const auto tail = polyfit(x, signal.subspan(n - window, window), options_.degree);
  for (std::size_t i = 0; i < h; ++i) {
    const std::size_t pos = n - h + i;
    out[pos] = polyval(tail, static_cast<double>(window - h + i));
  }
  return out;
}

std::vector<double> savgol_smooth(std::span<const double> signal, std::size_t window,
                                  std::size_t degree) {
  return SavitzkyGolay({.window = window, .degree = degree}).smooth(signal);
}

}  // namespace autosens::stats
