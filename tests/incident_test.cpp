// Failure injection: latency incidents (outage episodes where the whole
// environment slows down). Verifies both the simulator mechanics and the
// robustness of the AutoSens estimate to incident-polluted traces.
#include <gtest/gtest.h>

#include <cmath>

#include "core/pipeline.h"
#include "simulate/generator.h"
#include "simulate/presets.h"
#include "telemetry/clock.h"
#include "telemetry/filter.h"
#include "telemetry/validate.h"

namespace autosens::simulate {
namespace {

constexpr std::int64_t kDay = telemetry::kMillisPerDay;
constexpr std::int64_t kHour = telemetry::kMillisPerHour;

TEST(IncidentTest, EnvironmentValidatesIncidents) {
  stats::Random random(1);
  LatencyProcessOptions options;
  options.incidents = {{.begin_ms = 100, .end_ms = 100, .log_shift = 0.5}};
  EXPECT_THROW(LatencyEnvironment(options, 0, kDay, random), std::invalid_argument);
  options.incidents = {{.begin_ms = 100, .end_ms = 200, .log_shift = 0.5},
                       {.begin_ms = 150, .end_ms = 300, .log_shift = 0.5}};
  EXPECT_THROW(LatencyEnvironment(options, 0, kDay, random), std::invalid_argument);
}

TEST(IncidentTest, ShiftAppliesOnlyInsideWindow) {
  stats::Random random(2);
  LatencyProcessOptions options;
  options.incidents = {{.begin_ms = 2 * kHour, .end_ms = 3 * kHour, .log_shift = 0.7},
                       {.begin_ms = 5 * kHour, .end_ms = 6 * kHour, .log_shift = -0.2}};
  const LatencyEnvironment env(options, 0, kDay, random);
  EXPECT_DOUBLE_EQ(env.incident_shift(0), 0.0);
  EXPECT_DOUBLE_EQ(env.incident_shift(2 * kHour), 0.7);
  EXPECT_DOUBLE_EQ(env.incident_shift(3 * kHour - 1), 0.7);
  EXPECT_DOUBLE_EQ(env.incident_shift(3 * kHour), 0.0);
  EXPECT_DOUBLE_EQ(env.incident_shift(5 * kHour + 1), -0.2);
  EXPECT_DOUBLE_EQ(env.incident_shift(7 * kHour), 0.0);
}

TEST(IncidentTest, IncidentRaisesMeasuredLatency) {
  stats::Random random(3);
  LatencyProcessOptions options;
  options.ar_sigma = 0.0;
  options.noise_sigma = 0.0;
  options.incidents = {{.begin_ms = 10 * kHour, .end_ms = 12 * kHour, .log_shift = 0.7}};
  const LatencyEnvironment env(options, 0, kDay, random);
  const double normal =
      env.predictable_latency(9 * kHour, telemetry::ActionType::kSelectMail, 0.0);
  const double during =
      env.predictable_latency(11 * kHour, telemetry::ActionType::kSelectMail, 0.0);
  EXPECT_NEAR(during / normal,
              std::exp(0.7) * std::exp(env.options().load_curve.at_time(11 * kHour) -
                                       env.options().load_curve.at_time(9 * kHour)),
              1e-9);
}

TEST(IncidentTest, UsersActLessDuringIncidents) {
  // The planted preference responds to the incident: activity per unit time
  // drops while the environment is slow.
  auto config = paper_config(Scale::kSmall, 91);
  // One 6-hour severe incident per week, during business hours.
  config.latency.incidents = {
      {.begin_ms = 1 * kDay + 9 * kHour, .end_ms = 1 * kDay + 15 * kHour, .log_shift = 1.2},
      {.begin_ms = 8 * kDay + 9 * kHour, .end_ms = 8 * kDay + 15 * kHour, .log_shift = 1.2}};
  auto with_incident = WorkloadGenerator(config).generate();

  auto baseline_config = paper_config(Scale::kSmall, 91);
  auto baseline = WorkloadGenerator(baseline_config).generate();

  const auto count_in = [](const telemetry::Dataset& d, std::int64_t begin,
                           std::int64_t end) {
    std::size_t n = 0;
    for (std::size_t i = 0; i < d.size(); ++i) {
      const auto r = d[i];
      if (r.time_ms >= begin && r.time_ms < end) ++n;
    }
    return n;
  };
  const auto incident_begin = config.latency.incidents[0].begin_ms;
  const auto incident_end = config.latency.incidents[0].end_ms;
  const auto with_count = count_in(with_incident.dataset, incident_begin, incident_end);
  const auto base_count = count_in(baseline.dataset, incident_begin, incident_end);
  EXPECT_LT(static_cast<double>(with_count), 0.85 * static_cast<double>(base_count));
}

TEST(IncidentTest, PreferenceEstimateRobustToIncidents) {
  // The incident adds genuine high-latency/low-activity evidence — exactly
  // the natural experiment AutoSens exploits — so the recovered curve must
  // keep its shape (and anchors) when a trace contains outages.
  auto config = paper_config(Scale::kSmall, 92);
  config.latency.incidents = {
      {.begin_ms = 3 * kDay + 10 * kHour, .end_ms = 3 * kDay + 16 * kHour, .log_shift = 1.0},
      {.begin_ms = 9 * kDay + 2 * kHour, .end_ms = 9 * kDay + 8 * kHour, .log_shift = 1.0}};
  auto generated = WorkloadGenerator(config).generate();
  const auto slice = telemetry::validate(generated.dataset)
                         .dataset.filtered(telemetry::all_of(
                             {telemetry::by_action(telemetry::ActionType::kSelectMail),
                              telemetry::by_user_class(telemetry::UserClass::kBusiness)}));
  const auto result = core::analyze(slice, core::AutoSensOptions{});
  EXPECT_NEAR(result.at(300.0), 1.0, 1e-9);
  EXPECT_GT(result.at(500.0), result.at(1000.0));
  const auto planted = expected_class_curve(config, telemetry::ActionType::kSelectMail,
                                            telemetry::UserClass::kBusiness, 300.0);
  EXPECT_NEAR(result.at(1000.0), planted(1000.0), 0.10);
}

}  // namespace
}  // namespace autosens::simulate
