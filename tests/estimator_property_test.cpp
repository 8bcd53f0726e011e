// Invariance properties of the AutoSens estimator itself — the things that
// must NOT change the normalized latency preference:
//   * translating the whole trace by a whole number of days (α is a
//     time-of-day model, so whole-day shifts are symmetries);
//   * relabeling user ids;
//   * duplicating every record (scale of B cancels in the density ratio);
//   * the random seed of the Monte-Carlo U estimator (up to noise).
// And one that must: reversing the planted preference direction.
#include <gtest/gtest.h>

#include <cmath>

#include "core/pipeline.h"
#include "simulate/generator.h"
#include "simulate/presets.h"
#include "telemetry/clock.h"
#include "telemetry/filter.h"
#include "telemetry/validate.h"

namespace autosens::core {
namespace {

telemetry::Dataset base_slice(std::uint64_t seed) {
  auto generated =
      simulate::WorkloadGenerator(simulate::paper_config(simulate::Scale::kTiny, seed))
          .generate();
  return telemetry::validate(generated.dataset)
      .dataset.filtered(telemetry::by_action(telemetry::ActionType::kSelectMail));
}

std::vector<double> curve_probes(const PreferenceResult& r) {
  std::vector<double> out;
  for (double latency = 350.0; latency <= 1200.0; latency += 50.0) {
    out.push_back(r.covers(latency) ? r.at(latency) : -1.0);
  }
  return out;
}

TEST(EstimatorInvarianceTest, WholeDayTranslation) {
  const auto slice = base_slice(101);
  telemetry::Dataset shifted;
  for (std::size_t i = 0; i < slice.size(); ++i) {
    auto record = slice[i];
    record.time_ms += 7 * telemetry::kMillisPerDay;
    shifted.add(record);
  }
  shifted.sort_by_time();
  const auto a = analyze(slice, AutoSensOptions{});
  const auto b = analyze(shifted, AutoSensOptions{});
  EXPECT_EQ(curve_probes(a), curve_probes(b));
}

TEST(EstimatorInvarianceTest, UserRelabeling) {
  const auto slice = base_slice(102);
  telemetry::Dataset relabeled;
  for (std::size_t i = 0; i < slice.size(); ++i) {
    auto record = slice[i];
    record.user_id = record.user_id * 7919 + 13;
    relabeled.add(record);
  }
  relabeled.sort_by_time();
  const auto a = analyze(slice, AutoSensOptions{});
  const auto b = analyze(relabeled, AutoSensOptions{});
  EXPECT_EQ(curve_probes(a), curve_probes(b));
}

TEST(EstimatorInvarianceTest, RecordDuplication) {
  // Doubling every record doubles B's counts and leaves U's time weighting
  // unchanged (duplicates share their Voronoi cell) — the density ratio, and
  // hence the normalized curve, must be essentially unchanged.
  const auto slice = base_slice(103);
  telemetry::Dataset doubled;
  for (std::size_t i = 0; i < slice.size(); ++i) {
    const auto record = slice[i];
    doubled.add(record);
    doubled.add(record);
  }
  doubled.sort_by_time();
  const auto a = analyze(slice, AutoSensOptions{});
  // Double the support guard too, so bin admission (and hence the smoothing
  // window's reach) is identical — otherwise the doubled data legitimately
  // widens the supported range and shifts the curve near its old edge.
  AutoSensOptions doubled_options;
  doubled_options.min_biased_count *= 2.0;
  const auto b = analyze(doubled, doubled_options);
  // Probe the well-populated region; past ~1 s a tiny-scale slice has few
  // counts per bin and doubling still perturbs α's per-bin guard admissions.
  for (double latency = 350.0; latency <= 1000.0; latency += 50.0) {
    if (!a.covers(latency) || !b.covers(latency)) continue;
    EXPECT_NEAR(a.at(latency), b.at(latency), 0.02) << latency;
  }
}

TEST(EstimatorInvarianceTest, MonteCarloSeedStability) {
  const auto slice = base_slice(104);
  AutoSensOptions mc1;
  mc1.unbiased_method = UnbiasedMethod::kMonteCarlo;
  mc1.unbiased_draws = 300'000;
  mc1.seed = 1;
  AutoSensOptions mc2 = mc1;
  mc2.seed = 999;
  const auto a = analyze(slice, mc1);
  const auto b = analyze(slice, mc2);
  for (const double latency : {400.0, 700.0, 1000.0}) {
    if (a.covers(latency) && b.covers(latency)) {
      EXPECT_NEAR(a.at(latency), b.at(latency), 0.03) << latency;
    }
  }
}

TEST(EstimatorDirectionTest, InvertedPreferenceProducesRisingCurve) {
  // Sanity that the estimator is not just drawing "down and to the right":
  // plant a preference where users act MORE at high latency (drop scales
  // negative inverts the drop around 1) and the recovered curve must rise.
  auto config = simulate::paper_config(simulate::Scale::kSmall, 105);
  config.preference.user_drop_at_fastest = -0.8;
  config.preference.user_drop_at_slowest = -0.8;
  config.preference.period_drop_scale = {1.0, 1.0, 1.0, 1.0};
  auto generated = simulate::WorkloadGenerator(config).generate();
  const auto slice = telemetry::validate(generated.dataset)
                         .dataset.filtered(
                             telemetry::by_action(telemetry::ActionType::kSelectMail));
  const auto result = analyze(slice, AutoSensOptions{});
  EXPECT_GT(result.at(1000.0), result.at(500.0));
  EXPECT_GT(result.at(1000.0), 1.0);
}

TEST(EstimatorDirectionTest, FlatPreferenceProducesFlatCurve) {
  auto config = simulate::paper_config(simulate::Scale::kSmall, 106);
  config.preference.user_drop_at_fastest = 0.0;
  config.preference.user_drop_at_slowest = 0.0;
  config.preference.period_drop_scale = {1.0, 1.0, 1.0, 1.0};
  auto generated = simulate::WorkloadGenerator(config).generate();
  const auto slice = telemetry::validate(generated.dataset)
                         .dataset.filtered(
                             telemetry::by_action(telemetry::ActionType::kSelectMail));
  const auto result = analyze(slice, AutoSensOptions{});
  for (const double latency : {500.0, 750.0, 1000.0}) {
    EXPECT_NEAR(result.at(latency), 1.0, 0.06) << latency;
  }
}

}  // namespace
}  // namespace autosens::core
