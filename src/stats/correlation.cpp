#include "stats/correlation.h"

#include <cmath>
#include <stdexcept>

namespace autosens::stats {

double pearson(std::span<const double> x, std::span<const double> y) {
  if (x.size() != y.size()) throw std::invalid_argument("pearson: size mismatch");
  if (x.size() < 2) throw std::invalid_argument("pearson: need at least 2 samples");
  const double n = static_cast<double>(x.size());
  double mean_x = 0.0;
  double mean_y = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    mean_x += x[i];
    mean_y += y[i];
  }
  mean_x /= n;
  mean_y /= n;
  double sxx = 0.0;
  double syy = 0.0;
  double sxy = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double dx = x[i] - mean_x;
    const double dy = y[i] - mean_y;
    sxx += dx * dx;
    syy += dy * dy;
    sxy += dx * dy;
  }
  if (sxx <= 0.0 || syy <= 0.0) return 0.0;
  return sxy / std::sqrt(sxx * syy);
}

}  // namespace autosens::stats
