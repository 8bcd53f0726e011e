#include "core/confidence.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <set>
#include <span>

#include "simulate/generator.h"
#include "simulate/presets.h"
#include "telemetry/clock.h"
#include "telemetry/filter.h"
#include "telemetry/validate.h"

namespace autosens::core {
namespace {

telemetry::Dataset small_slice(std::uint64_t seed) {
  auto generated =
      simulate::WorkloadGenerator(simulate::paper_config(simulate::Scale::kSmall, seed))
          .generate();
  return telemetry::validate(generated.dataset)
      .dataset.filtered(telemetry::by_action(telemetry::ActionType::kSelectMail));
}

/// FNV-1a over the bit patterns of a times column and a latencies column.
std::uint64_t column_digest(std::span<const std::int64_t> times,
                            std::span<const double> latencies) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  const auto mix = [&](std::uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (value >> (8 * byte)) & 0xff;
      hash *= 0x100000001b3ULL;
    }
  };
  for (const std::int64_t t : times) mix(static_cast<std::uint64_t>(t));
  for (const double latency : latencies) mix(std::bit_cast<std::uint64_t>(latency));
  return hash;
}

TEST(DayBlockResampleTest, EmptyDatasetThrows) {
  stats::Random random(1);
  EXPECT_THROW(day_block_resample(telemetry::Dataset{}, random), std::invalid_argument);
}

TEST(DayBlockResampleTest, PreservesSizeOrderAndTimeOfDay) {
  const auto slice = small_slice(61);
  stats::Random random(2);
  const auto resampled = day_block_resample(slice, random);
  // Same day count → similar (not necessarily equal) record count; the
  // view's slot-major order is globally time-sorted.
  const auto times = resampled.times();
  EXPECT_TRUE(std::is_sorted(times.begin(), times.end()));
  EXPECT_GT(resampled.size(), slice.size() / 2);
  EXPECT_LT(resampled.size(), slice.size() * 2);
  // Every record keeps a valid hour-of-day distribution: daytime-heavy.
  std::size_t day = 0;
  std::size_t night = 0;
  for (const std::int64_t t : times) {
    const int hour = telemetry::hour_of_day(t);
    if (hour >= 9 && hour < 15) ++day;
    if (hour >= 1 && hour < 7) ++night;
  }
  EXPECT_GT(day, night);
}

TEST(DayBlockResampleTest, SpansSameDayRange) {
  const auto slice = small_slice(62);
  stats::Random random(3);
  const auto resampled = day_block_resample(slice, random);
  EXPECT_EQ(telemetry::day_index(resampled.begin_time()),
            telemetry::day_index(slice.begin_time()));
  EXPECT_LE(telemetry::day_index(resampled.end_time() - 1),
            telemetry::day_index(slice.end_time() - 1));
}

TEST(DayBlockResampleTest, ActuallyResamples) {
  const auto slice = small_slice(63);
  stats::Random random(4);
  const auto a = day_block_resample(slice, random);
  const auto b = day_block_resample(slice, random);
  EXPECT_NE(a.size(), b.size());  // overwhelmingly likely with 14 days
}

TEST(DayBlockResampleTest, ViewMatchesFrozenDigest) {
  // Golden determinism check: the resample of a fixed slice under a fixed
  // generator state, frozen when the view was proven identical to a
  // deep-copying resampler (same draws, same record order, then re-sort).
  const auto slice = small_slice(68);
  stats::Random random(9);
  const auto view = day_block_resample(slice, random);
  ASSERT_EQ(view.size(), 133406u);
  EXPECT_EQ(view.times().front(), 1047);
  EXPECT_EQ(view.times().back(), 1209595984);
  EXPECT_EQ(column_digest(view.times(), view.latencies()), 0x80b2718bf81f7583ULL);
  // The record gather agrees with the columns, and materializing keeps the
  // exact rows in the same (sorted) order.
  for (const std::size_t i : {std::size_t{0}, view.size() / 2, view.size() - 1}) {
    EXPECT_EQ(view[i].time_ms, view.times()[i]);
    EXPECT_EQ(view[i].latency_ms, view.latencies()[i]);
  }
  const auto materialized = view.materialize();
  EXPECT_TRUE(materialized.is_sorted());
  EXPECT_EQ(column_digest(materialized.times(), materialized.latencies()),
            0x80b2718bf81f7583ULL);
}

TEST(DayBlockResampleTest, SingleDayDatasetResamplesToItself) {
  // One non-empty day → every draw picks it; the only effect is the rebase
  // onto day 0 (time-of-day preserved).
  telemetry::Dataset d;
  const std::int64_t day5 = 5 * telemetry::kMillisPerDay;
  for (int i = 0; i < 10; ++i) {
    d.add({.time_ms = day5 + i * 1000, .user_id = 1, .latency_ms = 100.0 + i,
           .action = telemetry::ActionType::kSelectMail,
           .user_class = telemetry::UserClass::kBusiness,
           .status = telemetry::ActionStatus::kSuccess});
  }
  stats::Random random(10);
  const auto view = day_block_resample(d, random);
  ASSERT_EQ(view.size(), d.size());
  EXPECT_EQ(view.block_count(), 1u);
  for (std::size_t i = 0; i < view.size(); ++i) {
    EXPECT_EQ(view[i].time_ms, static_cast<std::int64_t>(i) * 1000);
    EXPECT_DOUBLE_EQ(view[i].latency_ms, 100.0 + static_cast<double>(i));
  }
}

TEST(DayBlockResampleTest, EmptyMiddleDaysAreSqueezedOut) {
  // Records on days 0 and 3 only: two slots, re-based onto days 0 and 1 —
  // the empty middle days vanish, exactly as the copying resampler always
  // behaved.
  telemetry::Dataset d;
  for (const std::int64_t day : {std::int64_t{0}, std::int64_t{3}}) {
    for (int i = 0; i < 5; ++i) {
      d.add({.time_ms = day * telemetry::kMillisPerDay + i * 60'000, .user_id = 2,
             .latency_ms = 50.0,
             .action = telemetry::ActionType::kSelectMail,
             .user_class = telemetry::UserClass::kConsumer,
             .status = telemetry::ActionStatus::kSuccess});
    }
  }
  stats::Random random(11);
  const auto view = day_block_resample(d, random);
  EXPECT_EQ(view.block_count(), 2u);
  EXPECT_EQ(view.size(), 10u);
  EXPECT_LE(telemetry::day_index(view.end_time() - 1), 1);
  const auto times = view.times();
  EXPECT_TRUE(std::is_sorted(times.begin(), times.end()));
}

TEST(AnalyzeWithConfidenceTest, Validation) {
  const auto slice = small_slice(64);
  stats::Random random(5);
  EXPECT_THROW(analyze_with_confidence(slice, AutoSensOptions{}, {500.0},
                                       {.replicates = 0, .confidence = 0.9}, random),
               std::invalid_argument);
  EXPECT_THROW(analyze_with_confidence(slice, AutoSensOptions{}, {500.0},
                                       {.replicates = 5, .confidence = 1.0}, random),
               std::invalid_argument);
}

TEST(AnalyzeWithConfidenceTest, IntervalsCoverPointEstimate) {
  const auto slice = small_slice(65);
  stats::Random random(6);
  const auto result = analyze_with_confidence(slice, AutoSensOptions{},
                                              {500.0, 1000.0}, {.replicates = 12}, random);
  EXPECT_EQ(result.usable_replicates, 12u);
  ASSERT_EQ(result.intervals.size(), 2u);
  for (std::size_t p = 0; p < 2; ++p) {
    const double point = result.point.at(result.probe_latency_ms[p]);
    EXPECT_LE(result.intervals[p].lo, result.intervals[p].hi);
    // The point estimate should be near the interval (bootstrap noise can
    // push it slightly outside for few replicates; allow slack).
    EXPECT_GT(point, result.intervals[p].lo - 0.1);
    EXPECT_LT(point, result.intervals[p].hi + 0.1);
    // A real interval, not degenerate.
    EXPECT_GT(result.intervals[p].hi - result.intervals[p].lo, 1e-6);
  }
}

TEST(AnalyzeWithConfidenceTest, IntervalsMatchFrozenBits) {
  // Golden intervals for two generator seeds, frozen bit for bit when the
  // view path was proven identical to a deep-copying resampler. Any change
  // to the draws, the resample or the estimator shows up here.
  struct Golden {
    std::uint64_t seed;
    std::array<std::uint64_t, 4> bits;  ///< lo/hi at 500 ms, lo/hi at 1000 ms.
  };
  const Golden goldens[] = {
      {8, {0x3fed57fe700a5fb2ULL, 0x3fee106998c28a52ULL, 0x3fe7deb9c1d93e9cULL,
           0x3fe918e7ca194c79ULL}},
      {9, {0x3fed8b4aea6c8692ULL, 0x3fee096316aa77d8ULL, 0x3fe7f3c009244d3bULL,
           0x3fe920e64a5db44dULL}},
  };
  const auto slice = small_slice(67);
  for (const auto& golden : goldens) {
    SCOPED_TRACE(testing::Message() << "seed=" << golden.seed);
    stats::Random random(golden.seed);
    const auto result = analyze_with_confidence(slice, AutoSensOptions{}, {500.0, 1000.0},
                                                {.replicates = 8}, random);
    EXPECT_EQ(result.usable_replicates, 8u);
    ASSERT_EQ(result.intervals.size(), 2u);
    for (std::size_t p = 0; p < 2; ++p) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(result.intervals[p].lo), golden.bits[2 * p]);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(result.intervals[p].hi), golden.bits[2 * p + 1]);
    }
  }
}

TEST(AnalyzeWithConfidenceTest, IntervalsContainPlantedValueMostOfTheTime) {
  const auto config = simulate::paper_config(simulate::Scale::kSmall, 66);
  auto generated = simulate::WorkloadGenerator(config).generate();
  const auto slice = telemetry::validate(generated.dataset)
                         .dataset.filtered(telemetry::all_of(
                             {telemetry::by_action(telemetry::ActionType::kSelectMail),
                              telemetry::by_user_class(telemetry::UserClass::kBusiness)}));
  stats::Random random(7);
  const auto result = analyze_with_confidence(slice, AutoSensOptions{}, {500.0},
                                              {.replicates = 16, .confidence = 0.95}, random);
  // The point estimate itself lies in the interval; the planted value sits
  // within the interval widened by the known attenuation bias.
  const auto planted = simulate::expected_pooled_curve(
      config, telemetry::ActionType::kSelectMail, telemetry::UserClass::kBusiness, 300.0);
  EXPECT_GT(planted(500.0), result.intervals[0].lo - 0.08);
  EXPECT_LT(planted(500.0), result.intervals[0].hi + 0.08);
}

}  // namespace
}  // namespace autosens::core
