#include "simulate/presets.h"

#include <stdexcept>
#include <utility>

#include "simulate/preference.h"

namespace autosens::simulate {

WorkloadConfig paper_config(Scale scale, std::uint64_t seed) {
  WorkloadConfig config;
  config.begin_ms = 0;
  config.seed = seed;
  config.population.business_fraction = 0.5;
  switch (scale) {
    case Scale::kTiny:
      config.end_ms = 3 * telemetry::kMillisPerDay;
      config.population.user_count = 120;
      break;
    case Scale::kSmall:
      config.end_ms = 14 * telemetry::kMillisPerDay;
      config.population.user_count = 400;
      break;
    case Scale::kMedium:
      config.end_ms = 60 * telemetry::kMillisPerDay;
      config.population.user_count = 800;
      break;
    case Scale::kFull:
      config.end_ms = 60 * telemetry::kMillisPerDay;
      config.population.user_count = 2000;
      break;
  }
  return config;
}

double pooled_period_scale(const WorkloadConfig& config) {
  // AutoSens's α-normalization rescales every time-of-day slot to the same
  // temporal action rate, so a pooled analysis sees each period with equal
  // *time* weight — the effective drop scale is the simple mean over the
  // four equal-length periods (not the activity-weighted mean, which is
  // what a naive, un-normalized pooling would apply).
  const PreferenceModel model(config.preference);
  double sum = 0.0;
  for (int p = 0; p < telemetry::kDayPeriodCount; ++p) {
    sum += model.period_drop_scale(static_cast<telemetry::DayPeriod>(p));
  }
  return sum / telemetry::kDayPeriodCount;
}

stats::PiecewiseLinearCurve expected_class_curve(const WorkloadConfig& config,
                                                 telemetry::ActionType type,
                                                 telemetry::UserClass user_class,
                                                 double ref_ms) {
  const PreferenceModel model(config.preference);
  return model.expected_curve(type, user_class, /*mean_percentile=*/0.5,
                              pooled_period_scale(config), ref_ms);
}

stats::PiecewiseLinearCurve expected_period_curve(const WorkloadConfig& config,
                                                  telemetry::ActionType type,
                                                  telemetry::UserClass user_class,
                                                  telemetry::DayPeriod period, double ref_ms) {
  const PreferenceModel model(config.preference);
  return model.expected_curve(type, user_class, /*mean_percentile=*/0.5,
                              model.period_drop_scale(period), ref_ms);
}

stats::PiecewiseLinearCurve expected_quartile_curve(const WorkloadConfig& config,
                                                    telemetry::ActionType type,
                                                    telemetry::UserClass user_class,
                                                    int quartile, double ref_ms) {
  if (quartile < 0 || quartile >= 4) {
    throw std::invalid_argument("expected_quartile_curve: quartile outside [0,4)");
  }
  // Mean speed percentile within quartile q of a uniform percentile
  // distribution: 0.125 + 0.25 q.
  const double mean_percentile = 0.125 + 0.25 * static_cast<double>(quartile);
  const PreferenceModel model(config.preference);
  return model.expected_curve(type, user_class, mean_percentile,
                              pooled_period_scale(config), ref_ms);
}

std::array<double, telemetry::kDayPeriodCount> expected_alpha_by_period(
    const WorkloadConfig& config) {
  constexpr std::array<std::pair<int, int>, telemetry::kDayPeriodCount> kPeriodHours = {
      {{8, 14}, {14, 20}, {20, 2}, {2, 8}}};
  std::array<double, telemetry::kDayPeriodCount> alpha{};
  const double reference = config.activity_curve.mean_over_hours(8, 14);
  for (int p = 0; p < telemetry::kDayPeriodCount; ++p) {
    const auto [from, to] = kPeriodHours[static_cast<std::size_t>(p)];
    alpha[static_cast<std::size_t>(p)] =
        config.activity_curve.mean_over_hours(from, to) / reference;
  }
  return alpha;
}

}  // namespace autosens::simulate
