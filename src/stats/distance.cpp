#include "stats/distance.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace autosens::stats {
namespace {

void check_compatible(const Histogram& p, const Histogram& q) {
  if (p.size() != q.size() || p.bin_width() != q.bin_width() || p.lo() != q.lo()) {
    throw std::invalid_argument("distance: histogram geometry mismatch");
  }
  if (p.total_weight() <= 0.0 || q.total_weight() <= 0.0) {
    throw std::invalid_argument("distance: empty histogram");
  }
}

/// sum term(i) over i < n with a fixed 4-lane interleaved accumulation:
/// lane k sums terms k, k+4, ...; lanes fold ((s0+s1)+s2)+s3, then the
/// n % 4 tail adds serially. The order is part of the distances' bits.
template <typename Term>
double interleaved_sum(std::size_t n, Term term) {
  double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
  const std::size_t m = n & ~std::size_t{3};
  for (std::size_t i = 0; i < m; i += 4) {
    s0 += term(i);
    s1 += term(i + 1);
    s2 += term(i + 2);
    s3 += term(i + 3);
  }
  double sum = ((s0 + s1) + s2) + s3;
  for (std::size_t i = m; i < n; ++i) sum += term(i);
  return sum;
}

}  // namespace

double total_variation_distance(const Histogram& p, const Histogram& q) {
  check_compatible(p, q);
  const auto a = p.counts();
  const auto b = q.counts();
  const double a_total = p.total_weight();
  const double b_total = q.total_weight();
  const double sum = interleaved_sum(
      a.size(), [&](std::size_t i) { return std::fabs(a[i] / a_total - b[i] / b_total); });
  return 0.5 * sum;
}

double hellinger_distance(const Histogram& p, const Histogram& q) {
  check_compatible(p, q);
  const auto a = p.counts();
  const auto b = q.counts();
  const double a_total = p.total_weight();
  const double b_total = q.total_weight();
  const double bc = interleaved_sum(a.size(), [&](std::size_t i) {  // Bhattacharyya coefficient
    return std::sqrt((a[i] / a_total) * (b[i] / b_total));
  });
  // A non-finite bin makes bc NaN; std::max(0.0, NaN) would report 0.
  if (std::isnan(bc)) return bc;
  return std::sqrt(std::max(0.0, 1.0 - bc));
}

double ks_statistic(const Histogram& p, const Histogram& q) {
  check_compatible(p, q);
  double cp = 0.0;
  double cq = 0.0;
  double max_gap = 0.0;
  for (std::size_t i = 0; i < p.size(); ++i) {
    cp += p.count(i) / p.total_weight();
    cq += q.count(i) / q.total_weight();
    max_gap = std::max(max_gap, std::abs(cp - cq));
  }
  return max_gap;
}

double mean_shift(const Histogram& p, const Histogram& q) {
  check_compatible(p, q);
  return p.mean() - q.mean();
}

}  // namespace autosens::stats
