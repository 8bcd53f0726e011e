#include "stats/bootstrap.h"

#include <gtest/gtest.h>

#include <vector>

namespace autosens::stats {
namespace {

TEST(BootstrapCurveTest, Validation) {
  Random random(5);
  const auto stat = [](std::span<const std::size_t>) { return std::vector<double>{1.0}; };
  EXPECT_THROW(bootstrap_curve_interval(0, stat, 10, 0.9, random), std::invalid_argument);
  EXPECT_THROW(bootstrap_curve_interval(2, stat, 0, 0.95, random), std::invalid_argument);
  EXPECT_THROW(bootstrap_curve_interval(2, stat, 10, 0.0, random), std::invalid_argument);
  EXPECT_THROW(bootstrap_curve_interval(2, stat, 10, 1.0, random), std::invalid_argument);
}

TEST(BootstrapCurveTest, RejectsVaryingLengths) {
  Random random(6);
  std::size_t call = 0;
  const auto stat = [&call](std::span<const std::size_t>) {
    return std::vector<double>(1 + (call++ % 2), 0.0);
  };
  EXPECT_THROW(bootstrap_curve_interval(5, stat, 10, 0.9, random), std::runtime_error);
}

TEST(BootstrapCurveTest, PerPointIntervalsCoverDeterministicCurve) {
  Random random(7);
  // Statistic ignores the resample: intervals must collapse to the curve.
  const std::vector<double> curve = {1.0, 2.0, 3.0};
  const auto intervals = bootstrap_curve_interval(
      10, [&curve](std::span<const std::size_t>) { return curve; }, 50, 0.9, random);
  ASSERT_EQ(intervals.size(), curve.size());
  for (std::size_t i = 0; i < curve.size(); ++i) {
    EXPECT_DOUBLE_EQ(intervals[i].lo, curve[i]);
    EXPECT_DOUBLE_EQ(intervals[i].hi, curve[i]);
  }
}

TEST(BootstrapCurveTest, ResampledMeanCurveCoversTruth) {
  Random random(8);
  std::vector<double> data(300);
  for (auto& v : data) v = random.normal(5.0, 1.0);
  const auto stat = [&data](std::span<const std::size_t> idx) {
    double sum = 0.0;
    for (const auto i : idx) sum += data[i];
    return std::vector<double>{sum / static_cast<double>(idx.size())};
  };
  const auto intervals = bootstrap_curve_interval(data.size(), stat, 400, 0.99, random);
  ASSERT_EQ(intervals.size(), 1u);
  EXPECT_TRUE(intervals[0].contains(5.0));
}

TEST(IntervalTest, ContainsIsInclusive) {
  const Interval i{.lo = 1.0, .hi = 2.0};
  EXPECT_TRUE(i.contains(1.0));
  EXPECT_TRUE(i.contains(2.0));
  EXPECT_FALSE(i.contains(0.999));
  EXPECT_FALSE(i.contains(2.001));
}

}  // namespace
}  // namespace autosens::stats
