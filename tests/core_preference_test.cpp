#include "core/preference.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>

#include "core/biased.h"
#include "stats/rng.h"
#include "stats/savitzky_golay.h"

namespace autosens::core {
namespace {

AutoSensOptions test_options() {
  AutoSensOptions options;
  options.bin_width_ms = 10.0;
  options.max_latency_ms = 1000.0;
  options.reference_latency_ms = 300.0;
  options.smoothing = {.window = 21, .degree = 3};
  options.min_biased_count = 1.0;
  options.min_unbiased_mass = 1e-9;
  return options;
}

/// Fill histograms so that B/U equals `ratio(latency)` exactly over
/// [100, 900), with plenty of mass per bin.
std::pair<stats::Histogram, stats::Histogram> make_pair(
    const AutoSensOptions& options, const std::function<double(double)>& ratio) {
  auto biased = make_latency_histogram(options);
  auto unbiased = make_latency_histogram(options);
  for (std::size_t i = 10; i < 90; ++i) {
    const double center = biased.bin_center(i);
    unbiased.set_count(i, 100.0);
    biased.set_count(i, 100.0 * ratio(center));
  }
  return {std::move(biased), std::move(unbiased)};
}

TEST(ComputePreferenceTest, GeometryMismatchThrows) {
  const auto options = test_options();
  auto a = make_latency_histogram(options);
  auto b = stats::Histogram(0.0, 20.0, 50);
  a.add(100.0);
  b.add(100.0);
  EXPECT_THROW(compute_preference(a, b, options), std::invalid_argument);
}

TEST(ComputePreferenceTest, EmptyHistogramsThrow) {
  const auto options = test_options();
  const auto empty = make_latency_histogram(options);
  EXPECT_THROW(compute_preference(empty, empty, options), std::invalid_argument);
}

TEST(ComputePreferenceTest, FlatRatioGivesFlatNormalizedCurve) {
  const auto options = test_options();
  auto [biased, unbiased] = make_pair(options, [](double) { return 3.0; });
  const auto result = compute_preference(biased, unbiased, options);
  for (std::size_t i = result.support_begin; i < result.support_end; ++i) {
    EXPECT_NEAR(result.normalized[i], 1.0, 1e-9);
  }
}

TEST(ComputePreferenceTest, NormalizedIsOneAtReference) {
  const auto options = test_options();
  auto [biased, unbiased] =
      make_pair(options, [](double latency) { return 2.0 - latency / 1000.0; });
  const auto result = compute_preference(biased, unbiased, options);
  EXPECT_NEAR(result.at(options.reference_latency_ms), 1.0, 1e-6);
}

TEST(ComputePreferenceTest, RecoversLinearPreference) {
  const auto options = test_options();
  const auto planted = [](double latency) { return 1.5 - latency / 1000.0; };
  auto [biased, unbiased] = make_pair(options, planted);
  const auto result = compute_preference(biased, unbiased, options);
  const double ref = planted(options.reference_latency_ms);
  for (const double latency : {200.0, 400.0, 600.0, 800.0}) {
    EXPECT_NEAR(result.at(latency), planted(latency) / ref, 1e-6) << latency;
  }
}

TEST(ComputePreferenceTest, SupportExcludesEdgeBins) {
  const auto options = test_options();
  auto [biased, unbiased] = make_pair(options, [](double) { return 1.0; });
  // Even with mass in the clamp bins, they must stay unsupported.
  biased.set_count(0, 1000.0);
  unbiased.set_count(0, 1000.0);
  const auto result = compute_preference(biased, unbiased, options);
  EXPECT_GE(result.support_begin, 1u);
  EXPECT_LE(result.support_end, biased.size() - 1);
}

TEST(ComputePreferenceTest, GuardsMaskThinBins) {
  auto options = test_options();
  options.min_biased_count = 50.0;
  auto biased = make_latency_histogram(options);
  auto unbiased = make_latency_histogram(options);
  for (std::size_t i = 10; i < 90; ++i) {
    unbiased.set_count(i, 100.0);
    biased.set_count(i, i == 50 ? 10.0 : 100.0);  // bin 50 under the guard
  }
  const auto result = compute_preference(biased, unbiased, options);
  EXPECT_EQ(result.valid[50], 0);
  // Interpolated through the gap: smoothed value exists and is close to the
  // neighbors' level.
  EXPECT_NEAR(result.normalized[50], 1.0, 0.05);
}

TEST(ComputePreferenceTest, ReferenceOutsideSupportThrows) {
  auto options = test_options();
  options.reference_latency_ms = 950.0;  // support ends at 900
  auto [biased, unbiased] = make_pair(options, [](double) { return 1.0; });
  EXPECT_THROW(compute_preference(biased, unbiased, options), std::invalid_argument);
}

TEST(ComputePreferenceTest, AtThrowsOutsideSupport) {
  const auto options = test_options();
  auto [biased, unbiased] = make_pair(options, [](double) { return 1.0; });
  const auto result = compute_preference(biased, unbiased, options);
  EXPECT_THROW(result.at(50.0), std::out_of_range);
  EXPECT_THROW(result.at(950.0), std::out_of_range);
  EXPECT_FALSE(result.covers(50.0));
  EXPECT_TRUE(result.covers(500.0));
}

TEST(ComputePreferenceTest, SmoothingSuppressesBinNoise) {
  auto options = test_options();
  options.smoothing = {.window = 21, .degree = 3};
  stats::Random random(3);
  auto biased = make_latency_histogram(options);
  auto unbiased = make_latency_histogram(options);
  for (std::size_t i = 10; i < 90; ++i) {
    unbiased.set_count(i, 1000.0);
    // True ratio 1.0 with ±20% multiplicative noise per bin.
    biased.set_count(i, 1000.0 * (1.0 + 0.2 * (random.uniform() - 0.5)));
  }
  const auto result = compute_preference(biased, unbiased, options);
  double max_deviation = 0.0;
  for (std::size_t i = result.support_begin + 10; i + 10 < result.support_end; ++i) {
    max_deviation = std::max(max_deviation, std::abs(result.normalized[i] - 1.0));
  }
  EXPECT_LT(max_deviation, 0.07);  // raw noise was up to 0.10+
}

TEST(ComputePreferenceTest, RawRatioNormalizesOverallScale) {
  // B and U are compared as probability densities (§2.3), so a uniform
  // B = k × U gives a raw ratio of exactly 1 regardless of k: only the
  // *shape* difference between the distributions carries signal.
  const auto options = test_options();
  auto [biased, unbiased] = make_pair(options, [](double) { return 2.0; });
  const auto result = compute_preference(biased, unbiased, options);
  for (std::size_t i = result.support_begin; i < result.support_end; ++i) {
    EXPECT_NEAR(result.raw_ratio[i], 1.0, 1e-9);
  }
}

TEST(ComputePreferenceTest, RawRatioReflectsShapeDifference) {
  const auto options = test_options();
  // B puts twice the relative mass on the lower half of the support.
  auto biased = make_latency_histogram(options);
  auto unbiased = make_latency_histogram(options);
  for (std::size_t i = 10; i < 90; ++i) {
    unbiased.set_count(i, 100.0);
    biased.set_count(i, i < 50 ? 200.0 : 100.0);
  }
  const auto result = compute_preference(biased, unbiased, options);
  // Total B mass = 40*200 + 40*100 = 12000 → pdf ratio: 200/150 vs 100/150.
  EXPECT_NEAR(result.raw_ratio[20], (200.0 / 12000.0) / (100.0 / 8000.0), 1e-9);
  EXPECT_NEAR(result.raw_ratio[70], (100.0 / 12000.0) / (100.0 / 8000.0), 1e-9);
}

// The clamp and the normalization are plain loops with a fixed arithmetic
// shape: overshoot below zero becomes +0.0, every other value passes
// unchanged, and normalization is a true division by the reference value,
// not a multiply by its reciprocal.
TEST(ComputePreferenceTest, ClampsOvershootAndDividesByReference) {
  auto options = test_options();
  options.reference_latency_ms = 305.0;  // a bin center: the reference is one bin
  // A step down to almost nothing makes the cubic smoother undershoot zero.
  auto [biased, unbiased] = make_pair(options, [](double latency) {
    return latency < 600.0 ? 1.0 + latency / 700.0 : 0.02;
  });
  const auto result = compute_preference(biased, unbiased, options);
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  const std::span<const double> raw(result.raw_ratio.data() + result.support_begin,
                                    result.support_end - result.support_begin);
  const auto expected = stats::SavitzkyGolay(options.smoothing).smooth(raw);
  bool clamped = false;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    const double smoothed = result.smoothed[result.support_begin + i];
    if (expected[i] < 0.0) {
      clamped = true;
      EXPECT_EQ(bits(smoothed), bits(0.0)) << "bin " << result.support_begin + i;
    } else {
      EXPECT_EQ(bits(smoothed), bits(expected[i])) << "bin " << result.support_begin + i;
    }
  }
  EXPECT_TRUE(clamped) << "the step must make the smoother undershoot";

  constexpr std::size_t kReferenceBin = 30;
  ASSERT_EQ(result.latency_ms[kReferenceBin], options.reference_latency_ms);
  const double reference = result.smoothed[kReferenceBin];
  bool reciprocal_differs = false;
  for (std::size_t i = result.support_begin; i < result.support_end; ++i) {
    EXPECT_EQ(bits(result.normalized[i]), bits(result.smoothed[i] / reference)) << "bin " << i;
    reciprocal_differs |= result.smoothed[i] * (1.0 / reference) != result.smoothed[i] / reference;
  }
  EXPECT_TRUE(reciprocal_differs) << "the curve must tell a division from a reciprocal multiply";
}

TEST(ComputePreferenceTest, ClampPassesNanThrough) {
  // Two adjacent bins whose ratio overflows to +inf: their unbiased mass is
  // subnormal but clears a subnormal guard. (An infinite biased count
  // cannot serve: it makes the biased total infinite, every other ratio 0,
  // and the reference throws.) Where the smoother's window meets the two
  // infinities with taps of opposite sign, inf - inf is NaN; where both taps
  // are negative it is -inf. The clamp must turn -inf into 0 and leave the
  // NaN NaN, not a plausible 0.
  auto options = test_options();
  options.min_unbiased_mass = std::numeric_limits<double>::denorm_min();
  auto biased = make_latency_histogram(options);
  auto unbiased = make_latency_histogram(options);
  constexpr std::size_t kInfBin = 70;
  for (std::size_t i = 1; i + 1 < biased.size(); ++i) {
    biased.set_count(i, 100.0);
    unbiased.set_count(i, i == kInfBin || i == kInfBin + 1 ? 1e-308 : 100.0);
  }
  const auto result = compute_preference(biased, unbiased, options);
  ASSERT_EQ(result.raw_ratio[kInfBin], std::numeric_limits<double>::infinity());
  ASSERT_EQ(result.raw_ratio[kInfBin + 1], std::numeric_limits<double>::infinity());
  const std::size_t half = options.smoothing.window / 2;
  std::size_t nans = 0;
  for (std::size_t i = kInfBin + 1 - half; i <= kInfBin + half; ++i) {
    if (std::isnan(result.smoothed[i])) {
      ++nans;
    } else {
      EXPECT_GE(result.smoothed[i], 0.0) << "bin " << i;
    }
  }
  EXPECT_GT(nans, 0u);
  EXPECT_TRUE(std::isfinite(result.smoothed[kInfBin - half - 1]));
  EXPECT_TRUE(std::isfinite(result.smoothed[kInfBin + half + 2]));
}

TEST(ComputePreferenceTest, ZeroGuardsLeaveEmptyBinUnsupported) {
  // With both guards at zero an empty bin would divide 0 by 0; it stays
  // unsupported and is interpolated like any guarded-out bin.
  auto options = test_options();
  options.min_biased_count = 0.0;
  options.min_unbiased_mass = 0.0;
  auto biased = make_latency_histogram(options);
  auto unbiased = make_latency_histogram(options);
  constexpr std::size_t kEmptyBin = 70;
  for (std::size_t i = 1; i + 1 < biased.size(); ++i) {
    if (i == kEmptyBin) continue;
    biased.set_count(i, 100.0);
    unbiased.set_count(i, 100.0);
  }
  const auto result = compute_preference(biased, unbiased, options);
  EXPECT_EQ(result.valid[kEmptyBin], 0);
  EXPECT_EQ(result.raw_ratio[kEmptyBin], 0.0);
  for (std::size_t i = result.support_begin; i < result.support_end; ++i) {
    EXPECT_NEAR(result.normalized[i], 1.0, 1e-9) << "bin " << i;
  }
}

TEST(ComputePreferenceTest, NegativeOrNanGuardsThrow) {
  auto [biased, unbiased] = make_pair(test_options(), [](double) { return 1.0; });
  for (const double bad : {-1.0, std::numeric_limits<double>::quiet_NaN()}) {
    auto options = test_options();
    options.min_biased_count = bad;
    EXPECT_THROW(compute_preference(biased, unbiased, options), std::invalid_argument);
    options = test_options();
    options.min_unbiased_mass = bad;
    EXPECT_THROW(compute_preference(biased, unbiased, options), std::invalid_argument);
  }
}

}  // namespace
}  // namespace autosens::core
