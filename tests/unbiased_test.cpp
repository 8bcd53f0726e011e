#include "core/unbiased.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace autosens::core {
namespace {

AutoSensOptions small_options() {
  AutoSensOptions options;
  options.bin_width_ms = 10.0;
  options.max_latency_ms = 1000.0;
  options.unbiased_draws = 50'000;
  return options;
}

TEST(UnbiasedTest, VoronoiWeightsByTimeCoverage) {
  // Two samples: one covers 25% of the window, the other 75%.
  const std::vector<std::int64_t> times = {250, 750};  // midpoint 500
  const std::vector<double> latencies = {100.0, 200.0};
  const auto h = unbiased_histogram_voronoi(times, latencies, {.begin_ms = 0, .end_ms = 1000},
                                            small_options());
  EXPECT_NEAR(h.count(h.bin_index(100.0)), 0.5, 1e-12);
  EXPECT_NEAR(h.count(h.bin_index(200.0)), 0.5, 1e-12);
  EXPECT_NEAR(h.total_weight(), 1.0, 1e-12);
}

TEST(UnbiasedTest, VoronoiAsymmetricCells) {
  const std::vector<std::int64_t> times = {100, 900};
  const std::vector<double> latencies = {10.0, 20.0};
  const auto h = unbiased_histogram_voronoi(times, latencies, {.begin_ms = 0, .end_ms = 1000},
                                            small_options());
  EXPECT_NEAR(h.count(h.bin_index(10.0)), 0.5, 1e-12);  // cell [0,500)
  EXPECT_NEAR(h.count(h.bin_index(20.0)), 0.5, 1e-12);  // cell [500,1000)
}

TEST(UnbiasedTest, MonteCarloMatchesVoronoi) {
  stats::Random env_random(3);
  std::vector<std::int64_t> times;
  std::vector<double> latencies;
  std::int64_t t = 0;
  for (int i = 0; i < 500; ++i) {
    t += static_cast<std::int64_t>(env_random.exponential(0.02)) + 1;
    times.push_back(t);
    latencies.push_back(env_random.lognormal(5.0, 0.4));
  }
  const TimeWindow window{.begin_ms = 0, .end_ms = t + 50};
  const auto options = small_options();
  const auto voronoi = unbiased_histogram_voronoi(times, latencies, window, options);
  stats::Random mc_random(4);
  const auto mc = unbiased_histogram_mc(times, latencies, window, options, mc_random);
  const auto pdf_v = voronoi.pdf();
  const auto pdf_mc = mc.pdf();
  double l1 = 0.0;
  for (std::size_t i = 0; i < pdf_v.size(); ++i) {
    l1 += std::abs(pdf_v[i] - pdf_mc[i]) * options.bin_width_ms;
  }
  EXPECT_LT(l1, 0.05);  // total variation distance small at 50k draws
}

TEST(UnbiasedTest, SizeMismatchThrows) {
  const std::vector<std::int64_t> times = {1, 2};
  const std::vector<double> latencies = {1.0};
  EXPECT_THROW(unbiased_histogram_voronoi(times, latencies, {.begin_ms = 0, .end_ms = 10},
                                          small_options()),
               std::invalid_argument);
  stats::Random random(1);
  EXPECT_THROW(unbiased_histogram_mc(times, latencies, {.begin_ms = 0, .end_ms = 10},
                                     small_options(), random),
               std::invalid_argument);
}

/// U over a window list from the estimator core (10 ms bins up to 1 s).
stats::Histogram windowed_u(const std::vector<std::int64_t>& times,
                            const std::vector<double>& latencies,
                            const std::vector<TimeWindow>& windows) {
  AutoSensOptions options;
  options.bin_width_ms = 10.0;
  options.max_latency_ms = 1000.0;
  return Accumulator::fill({times, latencies}, ClassGrid::kSlot, options, windows).unbiased();
}

TEST(UnbiasedTest, OverWindowsWeightsByDuration) {
  // Window A (length 100) has latency 10; window B (length 300) latency 20.
  const std::vector<std::int64_t> times = {50, 450};
  const std::vector<double> latencies = {10.0, 20.0};
  const std::vector<TimeWindow> windows = {{.begin_ms = 0, .end_ms = 100},
                                           {.begin_ms = 300, .end_ms = 600}};
  const auto h = windowed_u(times, latencies, windows);
  EXPECT_DOUBLE_EQ(h.count(h.bin_index(10.0)), 0.25);
  EXPECT_DOUBLE_EQ(h.count(h.bin_index(20.0)), 0.75);
}

TEST(UnbiasedTest, OverWindowsSkipsEmptyWindows) {
  // The empty middle window adds no time: the populated ones split U.
  const std::vector<std::int64_t> times = {50, 500};
  const std::vector<double> latencies = {10.0, 20.0};
  const std::vector<TimeWindow> windows = {{.begin_ms = 0, .end_ms = 100},
                                           {.begin_ms = 200, .end_ms = 300},
                                           {.begin_ms = 400, .end_ms = 700}};
  const auto h = windowed_u(times, latencies, windows);
  EXPECT_DOUBLE_EQ(h.total_weight(), 1.0);
  EXPECT_DOUBLE_EQ(h.count(h.bin_index(10.0)), 0.25);
  EXPECT_DOUBLE_EQ(h.count(h.bin_index(20.0)), 0.75);
}

TEST(UnbiasedTest, OverWindowsValidatesWindows) {
  const std::vector<std::int64_t> times = {50};
  const std::vector<double> latencies = {10.0};
  EXPECT_THROW(windowed_u(times, latencies, {{.begin_ms = 100, .end_ms = 100}}),
               std::invalid_argument);
  // Overlapping or out-of-order windows are rejected too.
  EXPECT_THROW(windowed_u(times, latencies, {{.begin_ms = 0, .end_ms = 100},
                                             {.begin_ms = 50, .end_ms = 150}}),
               std::invalid_argument);
}

TEST(UnbiasedTest, OverWindowsRejectsUnsortedTimes) {
  // Voronoi cells come from each sample's neighbours in `times`; unsorted
  // input would silently misattribute mass, so the fill rejects it.
  const std::vector<std::int64_t> times = {500, 100};
  const std::vector<double> latencies = {100.0, 200.0};
  const std::vector<TimeWindow> windows = {{0, 1000}};
  EXPECT_THROW(windowed_u(times, latencies, windows), std::invalid_argument);
  // Sorted input with identical content is accepted.
  const std::vector<std::int64_t> ok = {100, 500};
  EXPECT_NO_THROW(windowed_u(ok, latencies, windows));
}

TEST(UnbiasedTest, SampleOnlyAffectsItsOwnWindow) {
  // A sample in window A must not soak up time from window B.
  const std::vector<std::int64_t> times = {50, 260};
  const std::vector<double> latencies = {10.0, 20.0};
  const std::vector<TimeWindow> windows = {{.begin_ms = 0, .end_ms = 100},
                                           {.begin_ms = 250, .end_ms = 350}};
  const auto h = windowed_u(times, latencies, windows);
  EXPECT_DOUBLE_EQ(h.count(h.bin_index(10.0)), 0.5);
  EXPECT_DOUBLE_EQ(h.count(h.bin_index(20.0)), 0.5);
}

TEST(UnbiasedTest, DatasetConvenienceHonorsMethod) {
  telemetry::Dataset dataset;
  stats::Random random(5);
  std::int64_t t = 0;
  for (int i = 0; i < 300; ++i) {
    t += 100 + static_cast<std::int64_t>(random.exponential(0.05));
    dataset.add({.time_ms = t, .user_id = 1, .latency_ms = random.lognormal(5.0, 0.3)});
  }
  auto options = small_options();
  options.unbiased_method = UnbiasedMethod::kVoronoi;
  const auto voronoi = unbiased_histogram(dataset, options);
  options.unbiased_method = UnbiasedMethod::kMonteCarlo;
  const auto mc = unbiased_histogram(dataset, options);
  // Voronoi mass is 1 (probability); MC mass equals the draw count.
  EXPECT_NEAR(voronoi.total_weight(), 1.0, 1e-9);
  EXPECT_NEAR(mc.total_weight(), static_cast<double>(options.unbiased_draws), 0.5);
}

TEST(UnbiasedTest, EmptyDatasetThrows) {
  EXPECT_THROW(unbiased_histogram(telemetry::Dataset{}, small_options()),
               std::invalid_argument);
}

TEST(UnbiasedTest, BiasedSamplingIsCorrected) {
  // Construct a series where low-latency periods have 10x the sampling rate.
  // The biased histogram then over-represents low latency, but the unbiased
  // estimate must recover the 50/50 time split. This is the core mechanism
  // of the whole method (§2.2).
  std::vector<std::int64_t> times;
  std::vector<double> latencies;
  std::int64_t t = 0;
  bool low_phase = true;
  while (t < 1'000'000) {
    const std::int64_t phase_end = t + 50'000;  // 50 s phases
    const std::int64_t gap = low_phase ? 100 : 1000;
    const double latency = low_phase ? 100.0 : 500.0;
    for (; t < phase_end; t += gap) {
      times.push_back(t);
      latencies.push_back(latency);
    }
    low_phase = !low_phase;
  }
  const auto options = small_options();
  const auto u =
      unbiased_histogram_voronoi(times, latencies, {.begin_ms = 0, .end_ms = 1'000'000},
                                 options);
  const double low_mass = u.count(u.bin_index(100.0)) / u.total_weight();
  const double high_mass = u.count(u.bin_index(500.0)) / u.total_weight();
  EXPECT_NEAR(low_mass, 0.5, 0.02);
  EXPECT_NEAR(high_mass, 0.5, 0.02);
}

}  // namespace
}  // namespace autosens::core
