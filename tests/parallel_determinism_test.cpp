// End-to-end determinism of the parallel execution layer: every analysis
// entry point must produce byte-identical results for threads = 1, 2, and 8.
// This is the hard contract of core/parallel.h (fixed chunk grids, chunk-
// ordered reductions, counter-seeded RNG substreams) verified at the API
// surface, including on a 1M-record dataset.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "core/confidence.h"
#include "core/pipeline.h"
#include "core/slices.h"
#include "stats/bootstrap.h"
#include "stats/rng.h"
#include "telemetry/clock.h"
#include "telemetry/dataset.h"

namespace autosens {
namespace {

using core::AutoSensOptions;
using core::PreferenceResult;

/// A sorted dataset with diurnal structure, several actions, both user
/// classes, and a latency mix that supports the default reference latency.
telemetry::Dataset synthetic_dataset(std::size_t n, int days, std::uint64_t seed) {
  stats::Random random(seed);
  telemetry::Dataset dataset;
  dataset.reserve(n);
  const std::int64_t begin = 400 * telemetry::kMillisPerDay;
  const auto span = static_cast<double>(days) * telemetry::kMillisPerDay;
  constexpr telemetry::ActionType kActions[] = {
      telemetry::ActionType::kSelectMail, telemetry::ActionType::kSwitchFolder,
      telemetry::ActionType::kSelectMail, telemetry::ActionType::kSearch,
      telemetry::ActionType::kComposeSend};
  for (std::size_t i = 0; i < n; ++i) {
    telemetry::ActionRecord record;
    record.time_ms =
        begin + static_cast<std::int64_t>(span * static_cast<double>(i) /
                                          static_cast<double>(n));
    const double hour =
        static_cast<double>(record.time_ms % telemetry::kMillisPerDay) /
        static_cast<double>(telemetry::kMillisPerHour);
    // Latency swings with time of day (this is exactly the confounder the
    // normalizer removes) plus an exponential tail.
    const double diurnal = 120.0 * std::sin(hour / 24.0 * 2.0 * 3.141592653589793);
    record.latency_ms = std::min(
        2900.0, 180.0 + diurnal + 250.0 * -std::log(1.0 - random.uniform(0.0, 1.0)));
    record.user_id = i % 499;
    record.action = kActions[i % 5];
    record.user_class =
        (i % 3 == 0) ? telemetry::UserClass::kBusiness : telemetry::UserClass::kConsumer;
    dataset.add(record);
  }
  dataset.sort_by_time();
  return dataset;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

void expect_bitwise_equal(const std::vector<double>& a, const std::vector<double>& b,
                          const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(bits(a[i]), bits(b[i])) << what << " differs at index " << i;
  }
}

void expect_identical(const PreferenceResult& a, const PreferenceResult& b) {
  expect_bitwise_equal(a.latency_ms, b.latency_ms, "latency_ms");
  expect_bitwise_equal(a.raw_ratio, b.raw_ratio, "raw_ratio");
  expect_bitwise_equal(a.smoothed, b.smoothed, "smoothed");
  expect_bitwise_equal(a.normalized, b.normalized, "normalized");
  ASSERT_EQ(a.valid, b.valid);
  EXPECT_EQ(bits(a.reference_latency_ms), bits(b.reference_latency_ms));
  EXPECT_EQ(a.biased_samples, b.biased_samples);
  EXPECT_EQ(a.support_begin, b.support_begin);
  EXPECT_EQ(a.support_end, b.support_end);
}

std::vector<core::TimeWindow> daily_windows(const telemetry::Dataset& dataset) {
  std::vector<core::TimeWindow> windows;
  const std::int64_t begin = dataset.begin_time();
  const std::int64_t end = dataset.end_time();
  for (std::int64_t day = telemetry::day_index(begin);
       day * telemetry::kMillisPerDay < end; ++day) {
    core::TimeWindow w{.begin_ms = std::max(begin, day * telemetry::kMillisPerDay),
                       .end_ms = std::min(end, (day + 1) * telemetry::kMillisPerDay)};
    if (w.end_ms > w.begin_ms) windows.push_back(w);
  }
  return windows;
}

constexpr std::size_t kThreadSweep[] = {1, 2, 8};

TEST(ParallelDeterminismTest, AnalyzeOneMillionRecordsBitIdenticalAt8Threads) {
  const auto dataset = synthetic_dataset(1'000'000, 14, 11);
  AutoSensOptions options;
  options.threads = 1;
  const auto serial = core::analyze(dataset, options);
  options.threads = 8;
  const auto parallel = core::analyze(dataset, options);
  expect_identical(serial, parallel);
}

TEST(ParallelDeterminismTest, AnalyzeVoronoiAcrossThreadCounts) {
  const auto dataset = synthetic_dataset(100'000, 10, 21);
  AutoSensOptions options;
  options.threads = 1;
  const auto baseline = core::analyze(dataset, options);
  for (const std::size_t threads : kThreadSweep) {
    options.threads = threads;
    expect_identical(baseline, core::analyze(dataset, options));
  }
}

TEST(ParallelDeterminismTest, AnalyzeMonteCarloAcrossThreadCounts) {
  const auto dataset = synthetic_dataset(60'000, 10, 22);
  AutoSensOptions options;
  options.unbiased_method = core::UnbiasedMethod::kMonteCarlo;
  options.threads = 1;
  const auto baseline = core::analyze(dataset, options);
  for (const std::size_t threads : kThreadSweep) {
    options.threads = threads;
    expect_identical(baseline, core::analyze(dataset, options));
  }
}

TEST(ParallelDeterminismTest, AnalyzeOverWindowsAcrossThreadCounts) {
  const auto dataset = synthetic_dataset(100'000, 10, 23);
  const auto windows = daily_windows(dataset);
  AutoSensOptions options;
  options.threads = 1;
  const auto baseline = core::analyze_over_windows(dataset, windows, options);
  for (const std::size_t threads : kThreadSweep) {
    options.threads = threads;
    const auto run = core::analyze_over_windows(dataset, windows, options);
    expect_identical(baseline.preference, run.preference);
  }
}

TEST(ParallelDeterminismTest, PreferenceByActionAcrossThreadCounts) {
  const auto dataset = synthetic_dataset(200'000, 10, 24);
  AutoSensOptions options;
  options.threads = 1;
  const auto baseline = core::preference_by_action(dataset, options);
  ASSERT_FALSE(baseline.empty());
  for (const std::size_t threads : kThreadSweep) {
    options.threads = threads;
    const auto run = core::preference_by_action(dataset, options);
    ASSERT_EQ(baseline.size(), run.size());
    for (std::size_t s = 0; s < baseline.size(); ++s) {
      EXPECT_EQ(baseline[s].name, run[s].name);
      EXPECT_EQ(baseline[s].records, run[s].records);
      expect_identical(baseline[s].result, run[s].result);
    }
  }
}

TEST(ParallelDeterminismTest, EverySliceFamilyAcrossThreadCounts) {
  const auto dataset = synthetic_dataset(200'000, 40, 25);
  const auto families = [&](const AutoSensOptions& options) {
    using telemetry::ActionType;
    using telemetry::UserClass;
    std::vector<std::vector<core::NamedPreference>> out;
    out.push_back(core::preference_by_action(dataset, options, UserClass::kConsumer));
    out.push_back(core::preference_by_user_class(dataset, options, ActionType::kSelectMail));
    out.push_back(core::preference_by_quartile(dataset, dataset, options, ActionType::kSelectMail));
    out.push_back(core::preference_by_period(dataset, options, ActionType::kSelectMail,
                                             UserClass::kConsumer));
    out.push_back(core::preference_by_month(dataset, options, ActionType::kSelectMail));
    return out;
  };
  for (const auto method : {core::UnbiasedMethod::kVoronoi, core::UnbiasedMethod::kMonteCarlo}) {
    AutoSensOptions options;
    options.unbiased_method = method;
    options.unbiased_draws = 20'000;
    options.threads = 1;
    const auto baseline = families(options);
    for (const auto& family : baseline) ASSERT_FALSE(family.empty());
    for (const std::size_t threads : kThreadSweep) {
      options.threads = threads;
      const auto run = families(options);
      ASSERT_EQ(baseline.size(), run.size());
      for (std::size_t f = 0; f < baseline.size(); ++f) {
        ASSERT_EQ(baseline[f].size(), run[f].size()) << "family " << f;
        for (std::size_t s = 0; s < baseline[f].size(); ++s) {
          EXPECT_EQ(baseline[f][s].name, run[f][s].name);
          EXPECT_EQ(baseline[f][s].records, run[f][s].records);
          expect_identical(baseline[f][s].result, run[f][s].result);
        }
      }
    }
  }
}

TEST(ParallelDeterminismTest, BootstrapIntervalsAcrossThreadCounts) {
  stats::Random data_rng(31);
  std::vector<double> sample(5000);
  for (auto& v : sample) v = data_rng.uniform(0.0, 100.0);
  const auto curve = [&sample](std::span<const std::size_t> indices) {
    double sum = 0.0, sq = 0.0;
    for (const std::size_t idx : indices) {
      sum += sample[idx];
      sq += sample[idx] * sample[idx];
    }
    const double n = static_cast<double>(indices.size());
    return std::vector<double>{sum / n, sq / n};
  };
  stats::Random curve_base(33);
  const auto curve_baseline =
      stats::bootstrap_curve_interval(sample.size(), curve, 100, 0.9, curve_base, 1);
  for (const std::size_t threads : kThreadSweep) {
    stats::Random rng(33);
    const auto run =
        stats::bootstrap_curve_interval(sample.size(), curve, 100, 0.9, rng, threads);
    ASSERT_EQ(curve_baseline.size(), run.size());
    for (std::size_t p = 0; p < run.size(); ++p) {
      EXPECT_EQ(bits(curve_baseline[p].lo), bits(run[p].lo));
      EXPECT_EQ(bits(curve_baseline[p].hi), bits(run[p].hi));
    }
  }
}

TEST(ParallelDeterminismTest, ConfidenceIntervalsAcrossThreadCounts) {
  const auto dataset = synthetic_dataset(20'000, 8, 41);
  AutoSensOptions options;
  core::ConfidenceOptions confidence;
  confidence.replicates = 8;

  options.threads = 1;
  stats::Random base_rng(55);
  const auto baseline = core::analyze_with_confidence(dataset.columns(), options, {500.0, 1000.0},
                                                      confidence, base_rng);
  for (const std::size_t threads : kThreadSweep) {
    options.threads = threads;
    stats::Random rng(55);
    const auto run = core::analyze_with_confidence(dataset.columns(), options, {500.0, 1000.0},
                                                   confidence, rng);
    expect_identical(baseline.point, run.point);
    EXPECT_EQ(baseline.usable_replicates, run.usable_replicates);
    ASSERT_EQ(baseline.intervals.size(), run.intervals.size());
    for (std::size_t p = 0; p < run.intervals.size(); ++p) {
      EXPECT_EQ(bits(baseline.intervals[p].lo), bits(run.intervals[p].lo));
      EXPECT_EQ(bits(baseline.intervals[p].hi), bits(run.intervals[p].hi));
    }
  }
}

}  // namespace
}  // namespace autosens
