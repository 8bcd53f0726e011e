#include "core/confounder_dow.h"

#include <stdexcept>
#include <utility>

#include "core/accumulator.h"
#include "core/pipeline.h"
#include "telemetry/clock.h"

namespace autosens::core {

DayClass day_class(std::int64_t time_ms) noexcept {
  const int dow = telemetry::day_of_week(time_ms);
  // Epoch day 0 (1970-01-01) is a Thursday → Saturday = 2, Sunday = 3.
  return (dow == 2 || dow == 3) ? DayClass::kWeekend : DayClass::kWeekday;
}

std::string_view to_string(DayClass c) noexcept {
  return c == DayClass::kWeekend ? "weekend" : "weekday";
}

std::vector<TimeWindow> day_class_windows(const telemetry::Dataset& dataset, DayClass c) {
  const std::int64_t begin = dataset.begin_time();
  const std::int64_t end = dataset.end_time();
  std::vector<TimeWindow> windows;
  for (std::int64_t day = telemetry::day_index(begin); day * telemetry::kMillisPerDay < end;
       ++day) {
    const std::int64_t day_begin = day * telemetry::kMillisPerDay;
    if (day_class(day_begin) != c) continue;
    TimeWindow w{.begin_ms = std::max(day_begin, begin),
                 .end_ms = std::min(day_begin + telemetry::kMillisPerDay, end)};
    if (w.end_ms > w.begin_ms) windows.push_back(w);
  }
  return windows;
}

DayClassActivity day_class_activity(const telemetry::Dataset& dataset,
                                    const AutoSensOptions& options) {
  if (dataset.empty()) throw std::invalid_argument("day_class_activity: empty dataset");
  const auto accumulator = Accumulator::fill(dataset.columns(), ClassGrid::kDay, options);
  const auto weekday = static_cast<std::size_t>(DayClass::kWeekday);
  const auto weekend = static_cast<std::size_t>(DayClass::kWeekend);
  auto ratios = accumulator.rate_ratios(weekend, weekday);
  return DayClassActivity{.beta_weekend = ratios.used > 0 ? ratios.mean : 1.0,
                          .weekday_records = accumulator.records(weekday),
                          .weekend_records = accumulator.records(weekend),
                          .latency_ms = accumulator.alpha_bin_centers(),
                          .beta_by_bin = std::move(ratios.ratio),
                          .valid = std::move(ratios.valid)};
}

std::vector<DayClassPreference> preference_by_day_class(const telemetry::Dataset& dataset,
                                                        const AutoSensOptions& options) {
  std::vector<DayClassPreference> out;
  for (int c = 0; c < kDayClassCount; ++c) {
    const auto cls = static_cast<DayClass>(c);
    std::vector<std::size_t> rows;
    for (std::size_t i = 0; i < dataset.size(); ++i) {
      if (day_class(dataset.times()[i]) == cls) rows.push_back(i);
    }
    const auto slice = dataset.gather(rows);
    if (slice.empty()) continue;
    const auto windows = day_class_windows(slice, cls);
    try {
      auto result = analyze_over_windows(slice, windows, options);
      out.push_back({cls, std::move(result.preference), slice.size()});
    } catch (const std::invalid_argument&) {
      // Slice too thin to support a curve; skip.
    }
  }
  return out;
}

}  // namespace autosens::core
