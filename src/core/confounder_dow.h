// Day-of-week confounder (paper §2.4.1 names it alongside time-of-day:
// "users might be less ... active during the weekend than during the
// weekdays"). This module measures the weekday/weekend activity factor and
// provides weekday/weekend preference slices, mirroring the time-of-day
// machinery at day granularity.
#pragma once

#include <array>
#include <string_view>
#include <vector>

#include "core/accumulator.h"
#include "core/options.h"
#include "core/preference.h"
#include "telemetry/dataset.h"

namespace autosens::core {

enum class DayClass : int {
  kWeekday = 0,
  kWeekend = 1,  ///< Saturday + Sunday (epoch day 0 is a Thursday).
};

inline constexpr int kDayClassCount = 2;

DayClass day_class(std::int64_t time_ms) noexcept;
std::string_view to_string(DayClass c) noexcept;

/// The weekday/weekend activity factor β: the ratio of per-latency-bin
/// temporal action rates, weekend vs weekday (analogous to α with weekday as
/// the reference slot), averaged over latency bins.
struct DayClassActivity {
  double beta_weekend = 1.0;      ///< < 1 when weekends are quieter.
  std::size_t weekday_records = 0;
  std::size_t weekend_records = 0;
  std::vector<double> latency_ms;        ///< β-bin centers.
  std::vector<double> beta_by_bin;       ///< Per-bin ratios (0 = invalid).
  std::vector<char> valid;
};

DayClassActivity day_class_activity(const telemetry::Dataset& dataset,
                                    const AutoSensOptions& options);

/// Full-day windows of one day class across the data range.
std::vector<TimeWindow> day_class_windows(const telemetry::Dataset& dataset, DayClass c);

/// Weekday vs weekend preference curves for a pre-filtered slice. Uses
/// window-restricted unbiased estimation, like the time-of-day slices.
struct DayClassPreference {
  DayClass day_class = DayClass::kWeekday;
  PreferenceResult preference;
  std::size_t records = 0;
};

std::vector<DayClassPreference> preference_by_day_class(const telemetry::Dataset& dataset,
                                                        const AutoSensOptions& options);

}  // namespace autosens::core
