#include "stats/savitzky_golay.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numbers>
#include <vector>

#include "stats/rng.h"

namespace autosens::stats {
namespace {

TEST(SavitzkyGolayTest, RejectsEvenWindow) {
  EXPECT_THROW(SavitzkyGolay({.window = 100, .degree = 3}), std::invalid_argument);
  EXPECT_THROW(SavitzkyGolay({.window = 0, .degree = 0}), std::invalid_argument);
}

TEST(SavitzkyGolayTest, RejectsDegreeNotBelowWindow) {
  EXPECT_THROW(SavitzkyGolay({.window = 5, .degree = 5}), std::invalid_argument);
  EXPECT_THROW(SavitzkyGolay({.window = 5, .degree = 7}), std::invalid_argument);
}

TEST(SavitzkyGolayTest, KernelSumsToOne) {
  const SavitzkyGolay filter({.window = 11, .degree = 3});
  double sum = 0.0;
  for (const double k : filter.kernel()) sum += k;
  EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(SavitzkyGolayTest, KernelIsSymmetric) {
  const SavitzkyGolay filter({.window = 9, .degree = 2});
  const auto kernel = filter.kernel();
  for (std::size_t i = 0; i < kernel.size() / 2; ++i) {
    EXPECT_NEAR(kernel[i], kernel[kernel.size() - 1 - i], 1e-12);
  }
}

TEST(SavitzkyGolayTest, MatchesClassicQuadraticCoefficients) {
  // The classic SG(5, 2) kernel is (-3, 12, 17, 12, -3) / 35.
  const SavitzkyGolay filter({.window = 5, .degree = 2});
  const auto kernel = filter.kernel();
  const std::vector<double> expected = {-3.0 / 35, 12.0 / 35, 17.0 / 35, 12.0 / 35,
                                        -3.0 / 35};
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_NEAR(kernel[i], expected[i], 1e-12);
  }
}

TEST(SavitzkyGolayTest, EmptySignalGivesEmptyOutput) {
  const SavitzkyGolay filter({.window = 5, .degree = 2});
  EXPECT_TRUE(filter.smooth({}).empty());
}

TEST(SavitzkyGolayTest, ShortSignalUsesWholeFit) {
  const SavitzkyGolay filter({.window = 101, .degree = 3});
  // Signal shorter than the window: should fit one cubic, here exact.
  std::vector<double> signal;
  for (int i = 0; i < 20; ++i) signal.push_back(1.0 + 0.5 * i - 0.01 * i * i);
  const auto smoothed = filter.smooth(signal);
  ASSERT_EQ(smoothed.size(), signal.size());
  for (std::size_t i = 0; i < signal.size(); ++i) {
    EXPECT_NEAR(smoothed[i], signal[i], 1e-9);
  }
}

TEST(SavitzkyGolayTest, PreservesConstantSignal) {
  const SavitzkyGolay filter({.window = 11, .degree = 3});
  const std::vector<double> signal(100, 4.2);
  for (const double v : filter.smooth(signal)) EXPECT_NEAR(v, 4.2, 1e-12);
}

TEST(SavitzkyGolayTest, ReducesNoiseVariance) {
  Random random(3);
  std::vector<double> signal(2000);
  for (auto& v : signal) v = random.normal();
  const auto smoothed = savgol_smooth(signal, 101, 3);
  double var_in = 0.0;
  double var_out = 0.0;
  for (std::size_t i = 0; i < signal.size(); ++i) {
    var_in += signal[i] * signal[i];
    var_out += smoothed[i] * smoothed[i];
  }
  EXPECT_LT(var_out, 0.2 * var_in);
}

TEST(SavitzkyGolayTest, TracksSmoothSignal) {
  std::vector<double> signal(500);
  for (std::size_t i = 0; i < signal.size(); ++i) {
    signal[i] = std::sin(2.0 * std::numbers::pi * static_cast<double>(i) / 500.0);
  }
  const auto smoothed = savgol_smooth(signal, 51, 3);
  for (std::size_t i = 0; i < signal.size(); ++i) {
    EXPECT_NEAR(smoothed[i], signal[i], 0.01);
  }
}

TEST(SavitzkyGolayTest, EdgeHandlingIsExactOnPolynomials) {
  // "interp" edges: a polynomial of the filter degree passes through
  // unchanged everywhere INCLUDING the first/last half-window.
  std::vector<double> signal(300);
  for (std::size_t i = 0; i < signal.size(); ++i) {
    const double x = static_cast<double>(i);
    signal[i] = 5.0 - 0.3 * x + 0.002 * x * x + 1e-6 * x * x * x;
  }
  const auto smoothed = savgol_smooth(signal, 101, 3);
  for (std::size_t i = 0; i < signal.size(); ++i) {
    EXPECT_NEAR(smoothed[i], signal[i], 1e-6) << "at index " << i;
  }
}

TEST(SavitzkyGolayTest, InteriorIsSerialFirSum) {
  // The interior is out[h + t] = sum_j kernel[j] * signal[t + j], each
  // output summed over j in order with a separate multiply and add. NaN,
  // ±inf and -0.0 inside the signal reach exactly the outputs whose window
  // covers them; the edge fits see only finite samples.
  constexpr std::size_t kWindow = 11;
  const SavitzkyGolay filter({.window = kWindow, .degree = 3});
  Random random(707);
  std::vector<double> signal(301);
  for (auto& v : signal) v = random.uniform(0.0, 10.0);
  signal[100] = std::numeric_limits<double>::infinity();
  signal[150] = std::nan("");
  signal[200] = -0.0;
  signal[201] = std::nextafter(5.0, 6.0);
  const auto smoothed = filter.smooth(signal);
  const auto kernel = filter.kernel();
  const std::size_t h = kWindow / 2;
  for (std::size_t t = 0; t + kWindow <= signal.size(); ++t) {
    double sum = 0.0;
    for (std::size_t j = 0; j < kWindow; ++j) sum += kernel[j] * signal[t + j];
    if (std::isnan(sum)) {
      EXPECT_TRUE(std::isnan(smoothed[h + t])) << "at index " << h + t;
    } else {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(smoothed[h + t]), std::bit_cast<std::uint64_t>(sum))
          << "at index " << h + t;
    }
  }
  EXPECT_TRUE(std::isnan(smoothed[150 - h]));
  EXPECT_TRUE(std::isnan(smoothed[150 + h]));
  EXPECT_TRUE(std::isfinite(smoothed[150 - h - 1]));
  EXPECT_TRUE(std::isinf(smoothed[100]));
}

/// Property: polynomials of degree <= filter degree are fixed points, for a
/// sweep of (window, degree) configurations — the defining SG property.
using SgConfig = std::pair<std::size_t, std::size_t>;
class SavitzkyGolayPolynomialProperty : public ::testing::TestWithParam<SgConfig> {};

TEST_P(SavitzkyGolayPolynomialProperty, PolynomialIsFixedPoint) {
  const auto [window, degree] = GetParam();
  const SavitzkyGolay filter({.window = window, .degree = degree});
  std::vector<double> signal(window * 3);
  for (std::size_t i = 0; i < signal.size(); ++i) {
    double v = 0.0;
    double p = 1.0;
    const double x = static_cast<double>(i) / static_cast<double>(signal.size());
    for (std::size_t d = 0; d <= degree; ++d) {
      v += p;
      p *= x;
    }
    signal[i] = v;
  }
  const auto smoothed = filter.smooth(signal);
  for (std::size_t i = 0; i < signal.size(); ++i) {
    EXPECT_NEAR(smoothed[i], signal[i], 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Configs, SavitzkyGolayPolynomialProperty,
                         ::testing::Values(SgConfig{5, 2}, SgConfig{7, 3}, SgConfig{21, 2},
                                           SgConfig{51, 3}, SgConfig{101, 3},
                                           SgConfig{101, 5}, SgConfig{11, 0}));

}  // namespace
}  // namespace autosens::stats
