#include "simulate/generator.h"

#include <gtest/gtest.h>

#include <cmath>

#include "simulate/presets.h"
#include "stats/descriptive.h"
#include "telemetry/clock.h"
#include "telemetry/filter.h"

namespace autosens::simulate {
namespace {

constexpr std::int64_t kDay = telemetry::kMillisPerDay;

WorkloadConfig tiny_config(std::uint64_t seed = 1) {
  return paper_config(Scale::kTiny, seed);
}

TEST(GeneratorTest, Validation) {
  auto config = tiny_config();
  config.end_ms = config.begin_ms;
  EXPECT_THROW(WorkloadGenerator{config}, std::invalid_argument);
  config = tiny_config();
  config.error_rate = 1.5;
  EXPECT_THROW(WorkloadGenerator{config}, std::invalid_argument);
}

TEST(GeneratorTest, DeterministicForFixedSeed) {
  const auto config = tiny_config(9);
  auto r1 = WorkloadGenerator(config).generate();
  auto r2 = WorkloadGenerator(config).generate();
  ASSERT_EQ(r1.dataset.size(), r2.dataset.size());
  for (std::size_t i = 0; i < r1.dataset.size(); ++i) {
    EXPECT_EQ(r1.dataset[i], r2.dataset[i]);
  }
}

TEST(GeneratorTest, DifferentSeedsProduceDifferentWorkloads) {
  auto r1 = WorkloadGenerator(tiny_config(1)).generate();
  auto r2 = WorkloadGenerator(tiny_config(2)).generate();
  EXPECT_NE(r1.dataset.size(), r2.dataset.size());
}

TEST(GeneratorTest, RecordsAreSortedAndInRange) {
  const auto config = tiny_config();
  const auto result = WorkloadGenerator(config).generate();
  EXPECT_TRUE(result.dataset.is_sorted());
  EXPECT_GT(result.dataset.size(), 0u);
  for (std::size_t i = 0; i < result.dataset.size(); ++i) {
    const auto r = result.dataset[i];
    EXPECT_GE(r.time_ms, config.begin_ms);
    EXPECT_LT(r.time_ms, config.end_ms);
    EXPECT_GT(r.latency_ms, 0.0);
  }
}

TEST(GeneratorTest, AcceptedNeverExceedsCandidates) {
  const auto result = WorkloadGenerator(tiny_config()).generate();
  EXPECT_LE(result.accepted, result.candidates);
  EXPECT_EQ(result.accepted, result.dataset.size());
}

TEST(GeneratorTest, AllConfiguredActionTypesAppear) {
  const auto result = WorkloadGenerator(tiny_config()).generate();
  std::array<std::size_t, telemetry::kActionTypeCount> counts{};
  for (std::size_t i = 0; i < result.dataset.size(); ++i) {
    const auto r = result.dataset[i];
    ++counts[static_cast<std::size_t>(r.action)];
  }
  for (const auto c : counts) EXPECT_GT(c, 0u);
  // SelectMail has the highest configured rate.
  EXPECT_GT(counts[0], counts[1]);
}

TEST(GeneratorTest, DisabledActionTypeProducesNothing) {
  auto config = tiny_config();
  config.actions_per_user_day = {10.0, 0.0, 0.0, 0.0, 0.0};
  const auto result = WorkloadGenerator(config).generate();
  for (std::size_t i = 0; i < result.dataset.size(); ++i) {
    const auto r = result.dataset[i];
    EXPECT_EQ(r.action, telemetry::ActionType::kSelectMail);
  }
}

TEST(GeneratorTest, ErrorRateApproximatelyHonored) {
  auto config = tiny_config();
  config.error_rate = 0.10;
  const auto result = WorkloadGenerator(config).generate();
  std::size_t errors = 0;
  for (std::size_t i = 0; i < result.dataset.size(); ++i) {
    const auto r = result.dataset[i];
    if (r.status == telemetry::ActionStatus::kError) ++errors;
  }
  EXPECT_NEAR(static_cast<double>(errors) / static_cast<double>(result.dataset.size()), 0.10,
              0.02);
}

TEST(GeneratorTest, ZeroErrorRateProducesNoErrors) {
  auto config = tiny_config();
  config.error_rate = 0.0;
  const auto result = WorkloadGenerator(config).generate();
  for (std::size_t i = 0; i < result.dataset.size(); ++i) {
    const auto r = result.dataset[i];
    EXPECT_EQ(r.status, telemetry::ActionStatus::kSuccess);
  }
}

TEST(GeneratorTest, DaytimeIsBusierThanNight) {
  // The planted diurnal confounder must be visible in the output.
  const auto result = WorkloadGenerator(tiny_config()).generate();
  std::size_t day = 0;
  std::size_t night = 0;
  for (std::size_t i = 0; i < result.dataset.size(); ++i) {
    const auto r = result.dataset[i];
    const int hour = telemetry::hour_of_day(r.time_ms);
    if (hour >= 9 && hour < 15) ++day;
    if (hour >= 1 && hour < 7) ++night;
  }
  EXPECT_GT(day, 3 * night);
}

TEST(GeneratorTest, DaytimeLatencyIsHigherOnAverage) {
  // The load confounder: busy hours have higher latency.
  auto config = tiny_config();
  config.latency.ar_sigma = 0.05;  // suppress the transient component
  const auto result = WorkloadGenerator(config).generate();
  stats::RunningStats day;
  stats::RunningStats night;
  for (std::size_t i = 0; i < result.dataset.size(); ++i) {
    const auto r = result.dataset[i];
    const int hour = telemetry::hour_of_day(r.time_ms);
    if (r.action != telemetry::ActionType::kSelectMail) continue;
    if (hour >= 9 && hour < 15) day.add(r.latency_ms);
    if (hour >= 1 && hour < 7) night.add(r.latency_ms);
  }
  EXPECT_GT(day.mean(), night.mean());
}

TEST(GeneratorTest, SlowUsersLogHigherMedianLatency) {
  // Per-user offsets must be recoverable from the logs (basis of Fig 6).
  auto config = tiny_config();
  config.population.offset_sigma = 0.5;  // exaggerate for a clean signal
  WorkloadGenerator generator(config);
  const auto result = generator.generate();
  const auto medians = result.dataset.per_user_median_latency();
  // Compare the users with extreme planted offsets.
  const SimUser* fastest = nullptr;
  const SimUser* slowest = nullptr;
  for (const auto& user : generator.population().users()) {
    if (!fastest || user.latency_offset < fastest->latency_offset) fastest = &user;
    if (!slowest || user.latency_offset > slowest->latency_offset) slowest = &user;
  }
  ASSERT_TRUE(medians.contains(fastest->id));
  ASSERT_TRUE(medians.contains(slowest->id));
  EXPECT_LT(medians.at(fastest->id), medians.at(slowest->id));
}

TEST(GeneratorTest, WeekendDampsActivity) {
  auto config = paper_config(Scale::kSmall, 3);
  config.weekend_factor = 0.3;  // strong effect for a clear test
  const auto result = WorkloadGenerator(config).generate();
  std::size_t weekend = 0;
  std::size_t weekday = 0;
  for (std::size_t i = 0; i < result.dataset.size(); ++i) {
    const auto r = result.dataset[i];
    const int dow = telemetry::day_of_week(r.time_ms);
    if (dow == 2 || dow == 3) {
      ++weekend;
    } else {
      ++weekday;
    }
  }
  // 2 of 7 days are weekend; at equal rates weekend ≈ 0.4 × weekday.
  EXPECT_LT(static_cast<double>(weekend),
            0.55 * 0.4 * static_cast<double>(weekday));
}

TEST(GeneratorTest, BothUserClassesPresent) {
  const auto result = WorkloadGenerator(tiny_config()).generate();
  const auto business = result.dataset.filtered(
      telemetry::by_user_class(telemetry::UserClass::kBusiness));
  const auto consumer = result.dataset.filtered(
      telemetry::by_user_class(telemetry::UserClass::kConsumer));
  EXPECT_GT(business.size(), 0u);
  EXPECT_GT(consumer.size(), 0u);
}

TEST(PresetsTest, ScalesOrdering) {
  EXPECT_LT(paper_config(Scale::kTiny).end_ms, paper_config(Scale::kSmall).end_ms);
  EXPECT_LT(paper_config(Scale::kSmall).end_ms, paper_config(Scale::kMedium).end_ms);
  EXPECT_EQ(paper_config(Scale::kMedium).end_ms, 60 * kDay);
  EXPECT_LT(paper_config(Scale::kMedium).population.user_count,
            paper_config(Scale::kFull).population.user_count);
}

TEST(PresetsTest, PooledPeriodScaleNearOne) {
  // Defaults are calibrated so pooled-over-hours analyses see scale ≈ 1.
  EXPECT_NEAR(pooled_period_scale(paper_config(Scale::kMedium)), 1.0, 0.02);
}

TEST(PresetsTest, ExpectedPooledCurveMatchesAnchors) {
  const auto config = paper_config(Scale::kMedium);
  const auto curve = expected_pooled_curve(config, telemetry::ActionType::kSelectMail,
                                           telemetry::UserClass::kBusiness, 300.0);
  EXPECT_NEAR(curve(300.0), 1.0, 1e-9);
  EXPECT_NEAR(curve(500.0), 0.88, 0.02);
  EXPECT_NEAR(curve(1000.0), 0.68, 0.03);
}

TEST(PresetsTest, ExpectedQuartileCurvesAreOrdered) {
  const auto config = paper_config(Scale::kMedium);
  double previous = 0.0;
  for (int q = 3; q >= 0; --q) {
    const auto curve = expected_quartile_curve(config, telemetry::ActionType::kSelectMail,
                                               telemetry::UserClass::kConsumer, q, 300.0);
    const double value = curve(1200.0);
    if (q < 3) {
      EXPECT_LT(value, previous);
    }
    previous = value;
  }
  EXPECT_THROW(expected_quartile_curve(config, telemetry::ActionType::kSelectMail,
                                       telemetry::UserClass::kConsumer, 4, 300.0),
               std::invalid_argument);
}

TEST(PresetsTest, ExpectedAlphaOrdering) {
  const auto alpha = expected_alpha_by_period(paper_config(Scale::kMedium));
  EXPECT_DOUBLE_EQ(alpha[0], 1.0);  // morning reference
  EXPECT_GT(alpha[1], alpha[2]);
  EXPECT_GT(alpha[2], alpha[3]);
  EXPECT_LT(alpha[3], 0.35);  // deep night far below reference
}

}  // namespace
}  // namespace autosens::simulate
