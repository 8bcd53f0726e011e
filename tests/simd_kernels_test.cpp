// Golden tests for the runtime-dispatched binning (core/simd.h): bin_indices
// and the fills built on it must produce BIT-IDENTICAL results on the scalar
// and AVX2 paths, including on NaN, ±inf, and values exactly on bin
// boundaries. Each test runs the kernel once with the scalar override and
// once with the detected level; on hardware without AVX2 the two runs
// coincide and the comparison degenerates to a scalar self-check (the scalar
// path is still exercised).
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <vector>

#include "core/pipeline.h"
#include "core/simd.h"
#include "stats/histogram.h"
#include "stats/rng.h"
#include "stats/savitzky_golay.h"
#include "telemetry/clock.h"
#include "telemetry/dataset.h"

namespace autosens {
namespace {

namespace simd = core::simd;

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Pin the dispatch level for one scope.
class ScopedLevel {
 public:
  explicit ScopedLevel(simd::Level level) { simd::set_level_override(level); }
  ~ScopedLevel() { simd::set_level_override(std::nullopt); }
};

void expect_bitwise_equal(std::span<const double> a, std::span<const double> b,
                          const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(bits(a[i]), bits(b[i])) << what << " differs at index " << i;
  }
}

/// Run `fn` under the scalar override and under the detected level, return
/// both results.
template <typename Fn>
auto run_both(Fn&& fn) {
  ScopedLevel scalar(simd::Level::kScalar);
  auto scalar_result = fn();
  simd::set_level_override(simd::detected_level());
  auto dispatch_result = fn();
  return std::pair{std::move(scalar_result), std::move(dispatch_result)};
}

/// Sizes that hit the empty, sub-vector-width, one-past-width, block-boundary,
/// and bulk paths of every kernel.
constexpr std::size_t kSizes[] = {0, 1, 3, 4, 5, 7, 8, 31, 1023, 1024, 1025, 10'000};

/// Latency-like values plus every adversarial case: NaN, ±inf, -0.0, exact
/// bin edges, and values one ulp either side of an edge.
std::vector<double> adversarial_values(std::size_t n, double lo, double width,
                                       std::size_t bins, std::uint64_t seed) {
  stats::Random random(seed);
  const double hi = lo + width * static_cast<double>(bins);
  std::vector<double> values(n);
  for (std::size_t i = 0; i < n; ++i) {
    switch (i % 11) {
      case 0: values[i] = kNan; break;
      case 1: values[i] = kInf; break;
      case 2: values[i] = -kInf; break;
      case 3: values[i] = -0.0; break;
      case 4: {  // exactly on a bin edge
        const auto k = static_cast<double>(i % (bins + 1));
        values[i] = lo + k * width;
        break;
      }
      case 5: {  // one ulp below an edge
        const auto k = static_cast<double>(1 + i % bins);
        values[i] = std::nextafter(lo + k * width, -kInf);
        break;
      }
      case 6: {  // one ulp above an edge
        const auto k = static_cast<double>(i % bins);
        values[i] = std::nextafter(lo + k * width, kInf);
        break;
      }
      case 7: values[i] = random.uniform(lo - width, hi + width); break;  // clamp edges
      case 8: values[i] = random.uniform(-1e308, 1e308); break;           // huge
      default: values[i] = random.uniform(lo, hi); break;                 // in range
    }
  }
  return values;
}

struct BinGeometry {
  double lo;
  double width;
  std::size_t bins;
};

constexpr BinGeometry kGeometries[] = {
    {0.0, 10.0, 300},  // fig3-style latency histogram
    {0.0, 100.0, 30},  // α-bin histogram
    {-5.0, 0.3, 7},    // negative origin, non-representable width, < 1 vector of bins
    {0.0, 10.0, 1},    // single-bin degenerate
};

/// kSizes plus 8·bins and its neighbours, where fills used to switch to
/// per-lane partial histograms; 1023/1024/1025 in kSizes are the index-block
/// edges.
std::vector<std::size_t> fill_sizes(std::size_t bins) {
  std::vector<std::size_t> sizes(std::begin(kSizes), std::end(kSizes));
  for (const std::size_t n : {8 * bins - 1, 8 * bins, 8 * bins + 1}) sizes.push_back(n);
  return sizes;
}

TEST(SimdKernelsTest, BinIndicesMatchScalarReference) {
  for (const auto& g : kGeometries) {
    for (const std::size_t n : kSizes) {
      const auto values = adversarial_values(n, g.lo, g.width, g.bins, 101 + n);
      const auto [scalar, dispatch] = run_both([&] {
        std::vector<std::uint32_t> out(n, 0xffffffffu);
        simd::bin_indices(values, g.lo, g.width, g.bins, out);
        return out;
      });
      ASSERT_EQ(scalar, dispatch) << "bins=" << g.bins << " n=" << n;
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(scalar[i], simd::bin_index_scalar(values[i], g.lo, g.width, g.bins))
            << "value=" << values[i];
        ASSERT_LT(scalar[i], g.bins);
      }
    }
  }
}

TEST(SimdKernelsTest, HistogramFillBitIdentical) {
  for (const auto& g : kGeometries) {
    for (const std::size_t n : fill_sizes(g.bins)) {
      const auto values = adversarial_values(n, g.lo, g.width, g.bins, 202 + n);
      const auto [scalar, dispatch] = run_both([&] {
        std::vector<double> counts(g.bins, 0.0);
        simd::histogram_fill(values, g.lo, g.width, counts);
        return counts;
      });
      expect_bitwise_equal(scalar, dispatch, "histogram_fill");
      double mass = 0.0;
      for (const double c : scalar) mass += c;
      EXPECT_EQ(mass, static_cast<double>(n)) << "fill must conserve total count";
    }
  }
}

TEST(SimdKernelsTest, HistogramFillConstBitIdentical) {
  for (const auto& g : kGeometries) {
    for (const std::size_t n : fill_sizes(g.bins)) {
      const auto values = adversarial_values(n, g.lo, g.width, g.bins, 303 + n);
      const auto [scalar, dispatch] = run_both([&] {
        std::vector<double> counts(g.bins, 0.0);
        simd::histogram_fill_const(values, 0.3, g.lo, g.width, counts);
        return counts;
      });
      expect_bitwise_equal(scalar, dispatch, "histogram_fill_const");
      // Element-order adds: the fill is the serial loop, bit for bit.
      std::vector<double> serial(g.bins, 0.0);
      for (const double v : values) serial[simd::bin_index_scalar(v, g.lo, g.width, g.bins)] += 0.3;
      expect_bitwise_equal(scalar, serial, "histogram_fill_const vs serial");
    }
  }
}

TEST(SimdKernelsTest, HistogramFillWeightedBitIdentical) {
  for (const auto& g : kGeometries) {
    for (const std::size_t n : fill_sizes(g.bins)) {
      const auto values = adversarial_values(n, g.lo, g.width, g.bins, 404 + n);
      stats::Random random(505 + n);
      std::vector<double> weights(n);
      for (auto& w : weights) w = random.uniform(-2.0, 5.0);
      const auto [scalar, dispatch] = run_both([&] {
        std::vector<double> counts(g.bins, 0.0);
        const double added =
            simd::histogram_fill_weighted(values, weights, g.lo, g.width, counts);
        counts.push_back(added);  // compare the running weight sum too
        return counts;
      });
      expect_bitwise_equal(scalar, dispatch, "histogram_fill_weighted");
      std::vector<double> serial(g.bins, 0.0);
      for (std::size_t i = 0; i < n; ++i) {
        serial[simd::bin_index_scalar(values[i], g.lo, g.width, g.bins)] += weights[i];
      }
      serial.push_back(simd::sum_interleaved(weights));
      expect_bitwise_equal(scalar, serial, "histogram_fill_weighted vs serial");
    }
  }
}

// ---------------------------------------------------------------------------
// Consumer-level checks: the fills as used by Histogram, and the smoother.

TEST(SimdKernelsTest, HistogramAddAllMatchesElementwiseAdd) {
  const auto values = adversarial_values(5000, 0.0, 10.0, 300, 333);
  stats::Random random(334);
  std::vector<double> weights(values.size());
  for (auto& w : weights) w = random.uniform(0.1, 3.0);

  stats::Histogram elementwise(0.0, 10.0, 300);
  for (std::size_t i = 0; i < values.size(); ++i) elementwise.add(values[i], weights[i]);

  const auto [scalar, dispatch] = run_both([&] {
    stats::Histogram bulk(0.0, 10.0, 300);
    bulk.add_all(values, weights);
    std::vector<double> out(bulk.counts().begin(), bulk.counts().end());
    out.push_back(bulk.total_weight());
    return out;
  });
  expect_bitwise_equal(scalar, dispatch, "Histogram::add_all(values, weights)");
  for (std::size_t i = 0; i < 300; ++i) {
    ASSERT_EQ(bits(scalar[i]), bits(elementwise.count(i))) << "bin " << i;
  }
  // The bulk total uses the fixed interleaved reduction, so it matches
  // sum_interleaved bit-for-bit; against the elementwise serial fold the
  // summation-order difference grows with n, so allow a relative tolerance.
  EXPECT_EQ(bits(scalar.back()), bits(core::simd::sum_interleaved(weights)));
  EXPECT_NEAR(scalar.back(), elementwise.total_weight(),
              1e-12 * elementwise.total_weight());
}

TEST(SimdKernelsTest, SavitzkyGolaySmoothBitIdentical) {
  stats::Random random(444);
  std::vector<double> signal(4097);
  for (auto& v : signal) v = random.uniform(0.0, 10.0);
  const auto [scalar, dispatch] = run_both(
      [&] { return stats::savgol_smooth(signal, 11, 3); });
  expect_bitwise_equal(scalar, dispatch, "savgol_smooth");
}

#ifndef NDEBUG
TEST(SimdKernelsDeathTest, AddAllAssertsOnSpanLengthMismatch) {
  stats::Histogram histogram(0.0, 10.0, 10);
  const std::vector<double> values(8, 1.0);
  const std::vector<double> weights(7, 1.0);
  EXPECT_DEATH(histogram.add_all(values, weights), "length mismatch");
}
#endif

// ---------------------------------------------------------------------------
// End-to-end: the full analysis is bit-identical across SIMD/scalar dispatch
// and across thread counts (the PR 1 determinism contract must survive
// vectorization).

telemetry::Dataset synthetic_dataset(std::size_t n, int days, std::uint64_t seed) {
  stats::Random random(seed);
  telemetry::Dataset dataset;
  dataset.reserve(n);
  const std::int64_t begin = 400 * telemetry::kMillisPerDay;
  const auto span = static_cast<double>(days) * telemetry::kMillisPerDay;
  for (std::size_t i = 0; i < n; ++i) {
    telemetry::ActionRecord record;
    record.time_ms = begin + static_cast<std::int64_t>(
                                 span * static_cast<double>(i) / static_cast<double>(n));
    const double hour = static_cast<double>(record.time_ms % telemetry::kMillisPerDay) /
                        static_cast<double>(telemetry::kMillisPerHour);
    const double diurnal = 120.0 * std::sin(hour / 24.0 * 2.0 * 3.141592653589793);
    record.latency_ms = std::min(
        2900.0, 180.0 + diurnal + 250.0 * -std::log(1.0 - random.uniform(0.0, 1.0)));
    record.user_id = i % 499;
    record.action = telemetry::ActionType::kSelectMail;
    record.user_class = telemetry::UserClass::kConsumer;
    dataset.add(record);
  }
  dataset.sort_by_time();
  return dataset;
}

TEST(SimdKernelsTest, AnalyzeBitIdenticalAcrossDispatchAndThreads) {
  const auto dataset = synthetic_dataset(100'000, 10, 77);
  core::AutoSensOptions options;

  options.threads = 1;
  const auto baseline = [&] {
    ScopedLevel scalar(simd::Level::kScalar);
    return core::analyze(dataset, options);
  }();

  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    for (const simd::Level level : {simd::Level::kScalar, simd::detected_level()}) {
      ScopedLevel pin(level);
      options.threads = threads;
      const auto run = core::analyze(dataset, options);
      const char* what = level == simd::Level::kScalar ? "scalar" : "dispatch";
      SCOPED_TRACE(testing::Message() << "threads=" << threads << " level=" << what);
      expect_bitwise_equal(baseline.latency_ms, run.latency_ms, "latency_ms");
      expect_bitwise_equal(baseline.raw_ratio, run.raw_ratio, "raw_ratio");
      expect_bitwise_equal(baseline.smoothed, run.smoothed, "smoothed");
      expect_bitwise_equal(baseline.normalized, run.normalized, "normalized");
      ASSERT_EQ(baseline.valid, run.valid);
      ASSERT_EQ(baseline.support_begin, run.support_begin);
      ASSERT_EQ(baseline.support_end, run.support_end);
    }
  }
}

}  // namespace
}  // namespace autosens
