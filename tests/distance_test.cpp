#include "stats/distance.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "stats/rng.h"

namespace autosens::stats {
namespace {

Histogram filled(std::initializer_list<double> counts) {
  Histogram h(0.0, 1.0, counts.size());
  std::size_t i = 0;
  for (const double c : counts) h.set_count(i++, c);
  return h;
}

TEST(DistanceTest, GeometryMismatchThrows) {
  const auto a = filled({1.0, 2.0});
  Histogram b(0.0, 2.0, 2);
  b.add(0.5);
  EXPECT_THROW(total_variation_distance(a, b), std::invalid_argument);
  EXPECT_THROW(hellinger_distance(a, b), std::invalid_argument);
  EXPECT_THROW(ks_statistic(a, b), std::invalid_argument);
  EXPECT_THROW(mean_shift(a, b), std::invalid_argument);
}

TEST(DistanceTest, EmptyHistogramThrows) {
  const auto a = filled({1.0});
  const Histogram empty(0.0, 1.0, 1);
  EXPECT_THROW(total_variation_distance(a, empty), std::invalid_argument);
}

TEST(DistanceTest, IdenticalDistributionsHaveZeroDistance) {
  const auto a = filled({1.0, 2.0, 3.0});
  const auto b = filled({2.0, 4.0, 6.0});  // same shape, different scale
  EXPECT_NEAR(total_variation_distance(a, b), 0.0, 1e-12);
  EXPECT_NEAR(hellinger_distance(a, b), 0.0, 1e-6);
  EXPECT_NEAR(ks_statistic(a, b), 0.0, 1e-12);
  EXPECT_NEAR(mean_shift(a, b), 0.0, 1e-12);
}

TEST(DistanceTest, DisjointDistributionsHaveMaximalDistance) {
  const auto a = filled({1.0, 0.0});
  const auto b = filled({0.0, 1.0});
  EXPECT_NEAR(total_variation_distance(a, b), 1.0, 1e-12);
  EXPECT_NEAR(hellinger_distance(a, b), 1.0, 1e-12);
  EXPECT_NEAR(ks_statistic(a, b), 1.0, 1e-12);
}

TEST(DistanceTest, TotalVariationKnownValue) {
  const auto a = filled({3.0, 1.0});  // p = (.75, .25)
  const auto b = filled({1.0, 3.0});  // q = (.25, .75)
  EXPECT_NEAR(total_variation_distance(a, b), 0.5, 1e-12);
}

TEST(DistanceTest, KsIsMaxCdfGap) {
  const auto a = filled({1.0, 0.0, 1.0});  // cdf .5, .5, 1
  const auto b = filled({0.0, 2.0, 0.0});  // cdf 0, 1, 1
  EXPECT_NEAR(ks_statistic(a, b), 0.5, 1e-12);
}

TEST(DistanceTest, MeanShiftIsSigned) {
  const auto low = filled({1.0, 0.0});   // mass at bin center 0.5
  const auto high = filled({0.0, 1.0});  // mass at bin center 1.5
  EXPECT_NEAR(mean_shift(low, high), -1.0, 1e-12);
  EXPECT_NEAR(mean_shift(high, low), 1.0, 1e-12);
}

TEST(DistanceTest, MetricsOrderedOnNoisyShift) {
  // Hellinger <= sqrt(TV) relationships aside, all three must detect a
  // shifted distribution and grow with the shift.
  Random random(5);
  Histogram base(0.0, 1.0, 100);
  Histogram small_shift(0.0, 1.0, 100);
  Histogram big_shift(0.0, 1.0, 100);
  for (int i = 0; i < 200'000; ++i) {
    const double v = random.normal(50.0, 10.0);
    base.add(v);
    small_shift.add(v + 2.0);
    big_shift.add(v + 10.0);
  }
  EXPECT_LT(total_variation_distance(base, small_shift),
            total_variation_distance(base, big_shift));
  EXPECT_LT(ks_statistic(base, small_shift), ks_statistic(base, big_shift));
  EXPECT_LT(hellinger_distance(base, small_shift), hellinger_distance(base, big_shift));
}

/// The distances' defined summation order: lane k sums terms k, k+4, ...;
/// the lanes fold ((s0+s1)+s2)+s3, then the n % 4 tail adds serially.
template <typename Term>
double interleaved_reference(std::size_t n, Term term) {
  double lanes[4] = {0.0, 0.0, 0.0, 0.0};
  const std::size_t m = n - n % 4;
  for (std::size_t i = 0; i < m; ++i) lanes[i % 4] += term(i);
  double sum = ((lanes[0] + lanes[1]) + lanes[2]) + lanes[3];
  for (std::size_t i = m; i < n; ++i) sum += term(i);
  return sum;
}

TEST(DistanceTest, SumsInFourInterleavedLanes) {
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  for (const std::size_t n : {1u, 2u, 3u, 4u, 5u, 7u, 8u, 9u, 31u, 300u}) {
    Random random(222 + n);
    Histogram p(0.0, 1.0, n);
    Histogram q(0.0, 1.0, n);
    for (std::size_t i = 0; i < n; ++i) {
      // Random masses plus -0.0, exact zeros and values one ulp off 1.
      switch (i % 5) {
        case 0: p.set_count(i, -0.0); break;
        case 1: p.set_count(i, std::nextafter(1.0, 2.0)); break;
        default: p.set_count(i, random.uniform(0.0, 1000.0)); break;
      }
      q.set_count(i, i % 3 == 0 ? std::nextafter(1.0, 0.0) : random.uniform(0.0, 500.0));
    }
    if (!(p.total_weight() > 0.0)) p.set_count(0, 1.0);
    const auto a = p.counts();
    const auto b = q.counts();
    const double at = p.total_weight();
    const double bt = q.total_weight();
    const double l1 = interleaved_reference(
        n, [&](std::size_t i) { return std::fabs(a[i] / at - b[i] / bt); });
    EXPECT_EQ(bits(total_variation_distance(p, q)), bits(0.5 * l1)) << "n=" << n;
    const double bc = interleaved_reference(
        n, [&](std::size_t i) { return std::sqrt((a[i] / at) * (b[i] / bt)); });
    EXPECT_EQ(bits(hellinger_distance(p, q)), bits(std::sqrt(std::max(0.0, 1.0 - bc))))
        << "n=" << n;
  }
}

TEST(DistanceTest, TotalVariationPropagatesNonFiniteMass) {
  // No skip hides a non-finite bin: an infinite mass makes its probability
  // inf/inf = NaN, and the L1 sum reports NaN rather than a number.
  const double inf = std::numeric_limits<double>::infinity();
  const auto a = filled({1.0, inf, 2.0, 3.0, 4.0});
  const auto b = filled({1.0, 1.0, 1.0, 1.0, 1.0});
  EXPECT_TRUE(std::isnan(total_variation_distance(a, b)));
}

TEST(DistanceTest, HellingerPropagatesNonFiniteMass) {
  // The same inf/inf = NaN probability makes the Bhattacharyya sum NaN; the
  // distance reports NaN, not the 0 of identical distributions.
  const double inf = std::numeric_limits<double>::infinity();
  const auto a = filled({1.0, inf, 2.0, 3.0, 4.0});
  const auto b = filled({1.0, 1.0, 1.0, 1.0, 1.0});
  EXPECT_TRUE(std::isnan(hellinger_distance(a, b)));
}

}  // namespace
}  // namespace autosens::stats
