#include "stats/correlation.h"

#include <gtest/gtest.h>

#include <vector>

#include "stats/rng.h"

namespace autosens::stats {
namespace {

TEST(PearsonTest, Validation) {
  const std::vector<double> a = {1.0, 2.0};
  const std::vector<double> b = {1.0};
  EXPECT_THROW(pearson(a, b), std::invalid_argument);
  const std::vector<double> single = {1.0};
  EXPECT_THROW(pearson(single, single), std::invalid_argument);
}

TEST(PearsonTest, PerfectPositive) {
  const std::vector<double> x = {1.0, 2.0, 3.0, 4.0};
  const std::vector<double> y = {2.0, 4.0, 6.0, 8.0};
  EXPECT_NEAR(pearson(x, y), 1.0, 1e-12);
}

TEST(PearsonTest, PerfectNegative) {
  const std::vector<double> x = {1.0, 2.0, 3.0};
  const std::vector<double> y = {5.0, 3.0, 1.0};
  EXPECT_NEAR(pearson(x, y), -1.0, 1e-12);
}

TEST(PearsonTest, ZeroVarianceReturnsZero) {
  const std::vector<double> x = {1.0, 1.0, 1.0};
  const std::vector<double> y = {1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(pearson(x, y), 0.0);
}

TEST(PearsonTest, IndependentNoiseNearZero) {
  Random random(3);
  std::vector<double> x(50'000);
  std::vector<double> y(50'000);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = random.normal();
    y[i] = random.normal();
  }
  EXPECT_NEAR(pearson(x, y), 0.0, 0.02);
}

TEST(PearsonTest, KnownValue) {
  const std::vector<double> x = {1.0, 2.0, 3.0, 4.0, 5.0};
  const std::vector<double> y = {2.0, 1.0, 4.0, 3.0, 5.0};
  // Hand-computed: cov = 2.0, var_x = 2.5, var_y = 2.5 → r = 0.8.
  EXPECT_NEAR(pearson(x, y), 0.8, 1e-12);
}

/// Property: pearson is invariant to affine transforms of either input.
class PearsonAffineProperty : public ::testing::TestWithParam<std::pair<double, double>> {};

TEST_P(PearsonAffineProperty, InvariantUnderPositiveAffine) {
  const auto [scale, shift] = GetParam();
  Random random(11);
  std::vector<double> x(500);
  std::vector<double> y(500);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = random.normal();
    y[i] = 0.5 * x[i] + random.normal();
  }
  const double base = pearson(x, y);
  std::vector<double> transformed = x;
  for (auto& v : transformed) v = scale * v + shift;
  EXPECT_NEAR(pearson(transformed, y), base, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Affine, PearsonAffineProperty,
                         ::testing::Values(std::pair{2.0, 0.0}, std::pair{0.1, 5.0},
                                           std::pair{100.0, -3.0}));

}  // namespace
}  // namespace autosens::stats
