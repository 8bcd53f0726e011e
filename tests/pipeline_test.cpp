#include "core/pipeline.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "simulate/generator.h"
#include "simulate/presets.h"
#include "telemetry/filter.h"
#include "telemetry/validate.h"

namespace autosens::core {
namespace {

using simulate::paper_config;
using simulate::Scale;
using simulate::WorkloadGenerator;
using telemetry::ActionType;
using telemetry::UserClass;

telemetry::Dataset select_mail_business(Scale scale, std::uint64_t seed) {
  auto generated = WorkloadGenerator(paper_config(scale, seed)).generate();
  const auto validated = telemetry::validate(generated.dataset);
  return validated.dataset.filtered(telemetry::all_of(
      {telemetry::by_action(ActionType::kSelectMail),
       telemetry::by_user_class(UserClass::kBusiness)}));
}

TEST(PipelineTest, EmptyDatasetThrows) {
  EXPECT_THROW(analyze(telemetry::Dataset{}, AutoSensOptions{}), std::invalid_argument);
}

TEST(PipelineTest, SampleColumnsMatchDatasetAndRejectBadInput) {
  // The select pass analyzes bare columns: same rows, same bits as the
  // Dataset overload; empty or backwards-running times still throw.
  const auto slice = select_mail_business(Scale::kTiny, 38);
  const auto from_dataset = analyze_detailed(slice, AutoSensOptions{});
  const auto from_columns = analyze_detailed(slice.columns(), AutoSensOptions{});
  EXPECT_EQ(from_dataset.preference.normalized, from_columns.preference.normalized);
  EXPECT_EQ(from_dataset.preference.raw_ratio, from_columns.preference.raw_ratio);
  EXPECT_EQ(from_dataset.preference.biased_samples, from_columns.preference.biased_samples);
  EXPECT_THROW(analyze(telemetry::SampleColumns{}, AutoSensOptions{}), std::invalid_argument);
  std::vector<std::int64_t> times(slice.times().begin(), slice.times().end());
  std::swap(times[times.size() / 2], times[times.size() / 2 + 1]);
  if (times[times.size() / 2] == times[times.size() / 2 + 1]) times[times.size() / 2] += 1;
  EXPECT_THROW(analyze(telemetry::SampleColumns{times, slice.latencies()}, AutoSensOptions{}),
               std::invalid_argument);
}

TEST(PipelineTest, RecoveryOfPlantedPreferenceShape) {
  // Headline integration check: AutoSens recovers the planted SelectMail
  // curve — monotone decreasing and within tolerance at the paper anchors.
  const auto slice = select_mail_business(Scale::kSmall, 31);
  const auto result = analyze(slice, AutoSensOptions{});
  const auto planted =
      simulate::expected_class_curve(paper_config(Scale::kSmall, 31),
                                     ActionType::kSelectMail, UserClass::kBusiness, 300.0);
  EXPECT_NEAR(result.at(300.0), 1.0, 1e-9);
  for (const double latency : {500.0, 750.0, 1000.0}) {
    ASSERT_TRUE(result.covers(latency));
    // Heterogeneity attenuates the measured drop (DESIGN.md); the measured
    // value sits between the planted curve and flat.
    EXPECT_GT(result.at(latency), planted(latency) - 0.05) << latency;
    EXPECT_LT(result.at(latency), 1.0) << latency;
  }
  // Monotone ordering at well-supported anchors.
  EXPECT_GT(result.at(500.0), result.at(1000.0));
}

TEST(PipelineTest, NormalizationImprovesRecovery) {
  // Ablation B in miniature: with the diurnal confounder active and the
  // preference itself period-independent (so confounding is the ONLY
  // difference), the α-normalized curve must recover more of the planted
  // drop than the naive one — the confounder masks the drop (busy hours are
  // both slow and active, inflating B at high latency).
  auto config = paper_config(Scale::kSmall, 32);
  config.preference.period_drop_scale = {1.0, 1.0, 1.0, 1.0};
  auto generated = WorkloadGenerator(config).generate();
  const auto slice = telemetry::validate(generated.dataset)
                         .dataset.filtered(telemetry::all_of(
                             {telemetry::by_action(ActionType::kSelectMail),
                              telemetry::by_user_class(UserClass::kBusiness)}));
  AutoSensOptions with;
  AutoSensOptions without;
  without.normalize_time_confounder = false;
  const auto normalized = analyze(slice, with);
  const auto naive = analyze(slice, without);
  const double drop_normalized = 1.0 - normalized.at(1000.0);
  const double drop_naive = 1.0 - naive.at(1000.0);
  EXPECT_GT(drop_normalized, drop_naive + 0.03);
  // And the normalized drop is closer to the planted one.
  const auto planted = simulate::expected_class_curve(config, ActionType::kSelectMail,
                                                      UserClass::kBusiness, 300.0);
  const double drop_planted = 1.0 - planted(1000.0);
  EXPECT_LT(std::abs(drop_normalized - drop_planted), std::abs(drop_naive - drop_planted));
}

TEST(PipelineTest, DetailedResultExposesDistributions) {
  const auto slice = select_mail_business(Scale::kTiny, 33);
  const auto detailed = analyze_detailed(slice, AutoSensOptions{});
  EXPECT_GT(detailed.biased.total_weight(), 0.0);
  EXPECT_GT(detailed.unbiased.total_weight(), 0.0);
  EXPECT_EQ(detailed.slots.size(), 24u);
  EXPECT_EQ(detailed.preference.biased_samples, slice.size());
}

TEST(PipelineTest, SlotsEmptyWhenNormalizationDisabled) {
  const auto slice = select_mail_business(Scale::kTiny, 34);
  AutoSensOptions options;
  options.normalize_time_confounder = false;
  const auto detailed = analyze_detailed(slice, options);
  EXPECT_TRUE(detailed.slots.empty());
}

TEST(PipelineTest, MonteCarloAndVoronoiAgree) {
  const auto slice = select_mail_business(Scale::kSmall, 35);
  AutoSensOptions voronoi;
  AutoSensOptions mc;
  mc.unbiased_method = UnbiasedMethod::kMonteCarlo;
  mc.unbiased_draws = 400'000;
  const auto r1 = analyze(slice, voronoi);
  const auto r2 = analyze(slice, mc);
  for (const double latency : {400.0, 700.0, 1000.0}) {
    EXPECT_NEAR(r1.at(latency), r2.at(latency), 0.04) << latency;
  }
}

TEST(PipelineTest, AnalyzeOverWindowsValidation) {
  const auto slice = select_mail_business(Scale::kTiny, 36);
  EXPECT_THROW(analyze_over_windows(telemetry::Dataset{}, {}, AutoSensOptions{}),
               std::invalid_argument);
  EXPECT_THROW(analyze_over_windows(slice, {}, AutoSensOptions{}), std::invalid_argument);
}

TEST(PipelineTest, AnalyzeOverWindowsMatchesFullWindowAnalysis) {
  // A single window spanning the whole range must reproduce analyze().
  const auto slice = select_mail_business(Scale::kTiny, 37);
  const TimeWindow window{.begin_ms = slice.begin_time(), .end_ms = slice.end_time()};
  const std::vector<TimeWindow> windows = {window};
  const auto full = analyze(slice, AutoSensOptions{});
  const auto windowed = analyze_over_windows(slice, windows, AutoSensOptions{});
  for (const double latency : {400.0, 600.0, 900.0}) {
    if (full.covers(latency) && windowed.preference.covers(latency)) {
      EXPECT_NEAR(full.at(latency), windowed.preference.at(latency), 1e-9);
    }
  }
}

TEST(PipelineTest, DeterministicAcrossRuns) {
  const auto slice = select_mail_business(Scale::kTiny, 38);
  const auto r1 = analyze(slice, AutoSensOptions{});
  const auto r2 = analyze(slice, AutoSensOptions{});
  ASSERT_EQ(r1.normalized.size(), r2.normalized.size());
  for (std::size_t i = 0; i < r1.normalized.size(); ++i) {
    EXPECT_DOUBLE_EQ(r1.normalized[i], r2.normalized[i]);
  }
}

}  // namespace
}  // namespace autosens::core
