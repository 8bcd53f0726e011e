#include "stats/histogram.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

namespace autosens::stats {
namespace {

TEST(HistogramTest, ConstructorValidatesArguments) {
  EXPECT_THROW(Histogram(0.0, 0.0, 10), std::invalid_argument);
  EXPECT_THROW(Histogram(0.0, -1.0, 10), std::invalid_argument);
  EXPECT_THROW(Histogram(0.0, 1.0, 0), std::invalid_argument);
}

TEST(HistogramTest, CoveringComputesBinCount) {
  const auto h = Histogram::covering(0.0, 100.0, 10.0);
  EXPECT_EQ(h.size(), 10u);
  EXPECT_DOUBLE_EQ(h.bin_width(), 10.0);
}

TEST(HistogramTest, CoveringRoundsUp) {
  const auto h = Histogram::covering(0.0, 95.0, 10.0);
  EXPECT_EQ(h.size(), 10u);
}

TEST(HistogramTest, CoveringValidates) {
  EXPECT_THROW(Histogram::covering(10.0, 10.0, 1.0), std::invalid_argument);
  EXPECT_THROW(Histogram::covering(0.0, 10.0, 0.0), std::invalid_argument);
}

TEST(HistogramTest, BinIndexMapsValues) {
  const Histogram h(0.0, 10.0, 10);
  EXPECT_EQ(h.bin_index(0.0), 0u);
  EXPECT_EQ(h.bin_index(9.999), 0u);
  EXPECT_EQ(h.bin_index(10.0), 1u);
  EXPECT_EQ(h.bin_index(55.0), 5u);
}

TEST(HistogramTest, OutOfRangeValuesClampIntoEdgeBins) {
  Histogram h(0.0, 10.0, 10);
  h.add(-50.0);
  h.add(1e9);
  EXPECT_DOUBLE_EQ(h.count(0), 1.0);
  EXPECT_DOUBLE_EQ(h.count(9), 1.0);
  EXPECT_DOUBLE_EQ(h.total_weight(), 2.0);  // weight conserved
}

TEST(HistogramTest, BinEdgesAndCenters) {
  const Histogram h(100.0, 10.0, 5);
  EXPECT_DOUBLE_EQ(h.bin_left(0), 100.0);
  EXPECT_DOUBLE_EQ(h.bin_center(0), 105.0);
  EXPECT_DOUBLE_EQ(h.bin_left(4), 140.0);
}

TEST(HistogramTest, WeightedAdds) {
  Histogram h(0.0, 1.0, 4);
  h.add(0.5, 2.5);
  h.add(1.5, 0.5);
  EXPECT_DOUBLE_EQ(h.count(0), 2.5);
  EXPECT_DOUBLE_EQ(h.count(1), 0.5);
  EXPECT_DOUBLE_EQ(h.total_weight(), 3.0);
}

TEST(HistogramTest, AddAllFillsFromSpan) {
  Histogram h(0.0, 1.0, 3);
  const std::vector<double> values = {0.1, 1.1, 2.1, 0.2};
  h.add_all(values);
  EXPECT_DOUBLE_EQ(h.count(0), 2.0);
  EXPECT_DOUBLE_EQ(h.count(1), 1.0);
  EXPECT_DOUBLE_EQ(h.count(2), 1.0);
}

TEST(HistogramTest, SetCountKeepsTotalConsistent) {
  Histogram h(0.0, 1.0, 2);
  h.add(0.5);
  h.add(1.5);
  h.set_count(0, 5.0);
  EXPECT_DOUBLE_EQ(h.total_weight(), 6.0);
}

TEST(HistogramTest, ScaleMultipliesEverything) {
  Histogram h(0.0, 1.0, 2);
  h.add(0.5);
  h.add(1.5, 3.0);
  h.scale(2.0);
  EXPECT_DOUBLE_EQ(h.count(0), 2.0);
  EXPECT_DOUBLE_EQ(h.count(1), 6.0);
  EXPECT_DOUBLE_EQ(h.total_weight(), 8.0);
}

TEST(HistogramTest, MergeAddsBinWise) {
  Histogram a(0.0, 1.0, 3);
  Histogram b(0.0, 1.0, 3);
  a.add(0.5);
  b.add(0.5);
  b.add(2.5);
  a.merge(b);
  EXPECT_DOUBLE_EQ(a.count(0), 2.0);
  EXPECT_DOUBLE_EQ(a.count(2), 1.0);
  EXPECT_DOUBLE_EQ(a.total_weight(), 3.0);
}

/// Bin values a bulk scale or merge must carry through with one IEEE
/// operation each: NaN, ±inf, ±0.0 and values one ulp either side of 1.
std::vector<double> adversarial_counts() {
  const double inf = std::numeric_limits<double>::infinity();
  return {std::nan(""), inf, -inf, -0.0, 0.0, std::nextafter(1.0, 0.0),
          std::nextafter(1.0, 2.0), 3.7, 1e308, -2.5, 7.0};
}

void expect_same_double(double actual, double expected, std::size_t bin) {
  if (std::isnan(expected)) {
    EXPECT_TRUE(std::isnan(actual)) << "bin " << bin;
  } else {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(actual), std::bit_cast<std::uint64_t>(expected))
        << "bin " << bin;
  }
}

TEST(HistogramTest, ScaleIsOneMultiplyPerBin) {
  const auto counts = adversarial_counts();
  Histogram h(0.0, 1.0, counts.size());
  for (std::size_t i = 0; i < counts.size(); ++i) h.set_count(i, counts[i]);
  h.scale(0.37);
  for (std::size_t i = 0; i < counts.size(); ++i) {
    expect_same_double(h.count(i), counts[i] * 0.37, i);
  }
}

TEST(HistogramTest, MergeIsOneAddPerBin) {
  const auto counts = adversarial_counts();
  Histogram a(0.0, 1.0, counts.size());
  Histogram b(0.0, 1.0, counts.size());
  for (std::size_t i = 0; i < counts.size(); ++i) {
    a.set_count(i, counts[i]);
    b.set_count(i, counts[counts.size() - 1 - i]);
  }
  a.merge(b);
  for (std::size_t i = 0; i < counts.size(); ++i) {
    expect_same_double(a.count(i), counts[i] + counts[counts.size() - 1 - i], i);
  }
}

TEST(HistogramTest, MergeRejectsGeometryMismatch) {
  Histogram a(0.0, 1.0, 3);
  Histogram b(0.0, 2.0, 3);
  Histogram c(0.0, 1.0, 4);
  EXPECT_THROW(a.merge(b), std::invalid_argument);
  EXPECT_THROW(a.merge(c), std::invalid_argument);
}

TEST(HistogramTest, PdfIntegratesToOne) {
  Histogram h(0.0, 0.5, 20);
  for (int i = 0; i < 100; ++i) h.add(i * 0.1);
  const auto pdf = h.pdf();
  double integral = 0.0;
  for (const double d : pdf) integral += d * h.bin_width();
  EXPECT_NEAR(integral, 1.0, 1e-12);
}

TEST(HistogramTest, PdfOfEmptyHistogramIsZero) {
  const Histogram h(0.0, 1.0, 5);
  for (const double d : h.pdf()) EXPECT_DOUBLE_EQ(d, 0.0);
}

TEST(HistogramTest, CdfIsMonotoneAndEndsAtOne) {
  Histogram h(0.0, 1.0, 10);
  for (int i = 0; i < 50; ++i) h.add(i * 0.2);
  const auto cdf = h.cdf();
  for (std::size_t i = 1; i < cdf.size(); ++i) EXPECT_GE(cdf[i], cdf[i - 1]);
  EXPECT_NEAR(cdf.back(), 1.0, 1e-12);
}

TEST(HistogramTest, QuantileValidation) {
  Histogram h(0.0, 1.0, 4);
  EXPECT_THROW(h.quantile(0.5), std::invalid_argument);  // empty
  h.add(0.5);
  EXPECT_THROW(h.quantile(-0.1), std::invalid_argument);
  EXPECT_THROW(h.quantile(1.1), std::invalid_argument);
}

TEST(HistogramTest, QuantileInterpolatesWithinBin) {
  Histogram h(0.0, 10.0, 2);
  h.add(5.0, 10.0);  // all mass in bin [0, 10)
  EXPECT_NEAR(h.quantile(0.5), 5.0, 1e-9);
  EXPECT_NEAR(h.quantile(0.25), 2.5, 1e-9);
}

TEST(HistogramTest, MeanOfUniformFill) {
  Histogram h(0.0, 1.0, 10);
  for (int i = 0; i < 10; ++i) h.add(i + 0.5);
  EXPECT_NEAR(h.mean(), 5.0, 1e-12);
}

TEST(HistogramTest, MeanOfEmptyIsZero) {
  const Histogram h(0.0, 1.0, 10);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
}

/// Property over bin widths: every added value lands in the bin whose range
/// contains it, and totals are exact.
class HistogramBinWidthProperty : public ::testing::TestWithParam<double> {};

TEST_P(HistogramBinWidthProperty, ValuesLandInContainingBin) {
  const double width = GetParam();
  const auto h = Histogram::covering(0.0, 100.0, width);
  for (double v = 0.05; v < 100.0; v += 0.7) {
    const std::size_t idx = h.bin_index(v);
    EXPECT_LE(h.bin_left(idx), v);
    if (idx + 1 < h.size()) {
      EXPECT_LT(v, h.bin_left(idx + 1));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, HistogramBinWidthProperty,
                         ::testing::Values(0.5, 1.0, 3.0, 10.0, 33.0));

}  // namespace
}  // namespace autosens::stats
