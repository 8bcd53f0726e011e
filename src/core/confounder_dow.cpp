#include "core/confounder_dow.h"

#include <stdexcept>

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
  const auto times = dataset.times();
  const auto latencies = dataset.latencies();

  struct ClassData {
    stats::Histogram counts;
    stats::Histogram fractions;
    double total_time = 0.0;
    std::size_t records = 0;
  };
  std::array<ClassData, kDayClassCount> data = {
      ClassData{stats::Histogram::covering(0.0, options.max_latency_ms,
                                           options.alpha_bin_width_ms),
                stats::Histogram::covering(0.0, options.max_latency_ms,
                                           options.alpha_bin_width_ms),
                0.0, 0},
      ClassData{stats::Histogram::covering(0.0, options.max_latency_ms,
                                           options.alpha_bin_width_ms),
                stats::Histogram::covering(0.0, options.max_latency_ms,
                                           options.alpha_bin_width_ms),
                0.0, 0}};

  for (int c = 0; c < kDayClassCount; ++c) {
    const auto windows = day_class_windows(dataset, static_cast<DayClass>(c));
    auto& cd = data[static_cast<std::size_t>(c)];
    cd.fractions = unbiased_histogram_over_windows_sorted(times, latencies, windows,
                                                          options.alpha_bin_width_ms,
                                                          options.max_latency_ms);
    for (const auto& w : windows) cd.total_time += static_cast<double>(w.length());
  }
  for (std::size_t i = 0; i < times.size(); ++i) {
    auto& cd = data[static_cast<std::size_t>(day_class(times[i]))];
    cd.counts.add(latencies[i]);
    ++cd.records;
  }

  const auto& weekday = data[0];
  const auto& weekend = data[1];
  DayClassActivity activity;
  activity.weekday_records = weekday.records;
  activity.weekend_records = weekend.records;

  const std::size_t bins = weekday.counts.size();
  activity.latency_ms.resize(bins);
  activity.beta_by_bin.assign(bins, 0.0);
  activity.valid.assign(bins, 0);
  const double wd_mass = weekday.fractions.total_weight();
  const double we_mass = weekend.fractions.total_weight();
  double sum = 0.0;
  std::size_t used = 0;
  for (std::size_t i = 0; i < bins; ++i) {
    activity.latency_ms[i] = weekday.counts.bin_center(i);
    if (wd_mass <= 0.0 || we_mass <= 0.0 || weekday.total_time <= 0.0 ||
        weekend.total_time <= 0.0) {
      continue;
    }
    const double f_wd = weekday.fractions.count(i) / wd_mass;
    const double f_we = weekend.fractions.count(i) / we_mass;
    const double c_wd = weekday.counts.count(i);
    if (f_wd < 1e-3 || f_we < 1e-3 || c_wd < 10.0) continue;
    const double rate_wd = c_wd / (f_wd * weekday.total_time);
    const double rate_we = weekend.counts.count(i) / (f_we * weekend.total_time);
    activity.beta_by_bin[i] = rate_we / rate_wd;
    activity.valid[i] = 1;
    sum += activity.beta_by_bin[i];
    ++used;
  }
  activity.beta_weekend = used > 0 ? sum / static_cast<double>(used) : 1.0;
  return activity;
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
