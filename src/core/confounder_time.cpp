#include "core/confounder_time.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <stdexcept>
#include <utility>

#include "obs/trace.h"

namespace autosens::core {

TimeNormalizer::TimeNormalizer(const telemetry::Dataset& dataset,
                               const AutoSensOptions& options)
    : TimeNormalizer(
          [&] {
            if (!dataset.empty() && !dataset.is_sorted()) {
              throw std::invalid_argument("TimeNormalizer: dataset not sorted");
            }
            return dataset.columns();
          }(),
          options) {}

TimeNormalizer::TimeNormalizer(telemetry::SampleColumns columns,
                               const AutoSensOptions& options)
    : options_(options) {
  obs::Span span("alpha_estimate");
  span.attr("records", static_cast<std::int64_t>(columns.size()));
  if (columns.empty()) throw std::invalid_argument("TimeNormalizer: empty dataset");
  slots_ = Accumulator::fill(columns, ClassGrid::kSlot, options_).solve_alpha();
}

double TimeNormalizer::alpha_at(std::int64_t time_ms) const noexcept {
  const auto k = static_cast<std::size_t>(
      telemetry::floor_mod(time_ms, telemetry::kMillisPerDay) / options_.alpha_slot_ms);
  return k < slots_.size() ? slots_[k].alpha : 1.0;
}

stats::Histogram TimeNormalizer::normalized_biased(const telemetry::Dataset& dataset) const {
  return normalized_biased(dataset.columns());
}

stats::Histogram TimeNormalizer::normalized_biased(telemetry::SampleColumns columns) const {
  return Accumulator::fill(columns, ClassGrid::kSlot, options_).biased(slots_);
}

std::vector<TimeWindow> period_windows(const telemetry::Dataset& dataset,
                                       telemetry::DayPeriod period) {
  // Hour offsets of each period within a day; evening wraps past midnight.
  constexpr std::array<std::pair<int, int>, telemetry::kDayPeriodCount> kHours = {
      {{8, 14}, {14, 20}, {20, 26}, {2, 8}}};
  const auto [from, to] = kHours[static_cast<std::size_t>(period)];
  const std::int64_t begin = dataset.begin_time();
  const std::int64_t end = dataset.end_time();
  std::vector<TimeWindow> windows;
  for (std::int64_t day = telemetry::day_index(begin) - 1;
       day * telemetry::kMillisPerDay < end; ++day) {
    TimeWindow w{.begin_ms = day * telemetry::kMillisPerDay + from * telemetry::kMillisPerHour,
                 .end_ms = day * telemetry::kMillisPerDay + to * telemetry::kMillisPerHour};
    w.begin_ms = std::max(w.begin_ms, begin);
    w.end_ms = std::min(w.end_ms, end);
    if (w.end_ms > w.begin_ms) windows.push_back(w);
  }
  return windows;
}

std::array<PeriodAlpha, telemetry::kDayPeriodCount> alpha_by_period(
    const telemetry::Dataset& dataset, const AutoSensOptions& options,
    telemetry::DayPeriod reference) {
  if (dataset.empty()) throw std::invalid_argument("alpha_by_period: empty dataset");
  const auto accumulator = Accumulator::fill(dataset.columns(), ClassGrid::kPeriod, options);
  std::array<PeriodAlpha, telemetry::kDayPeriodCount> out;
  for (std::size_t p = 0; p < out.size(); ++p) {
    auto ratios = accumulator.rate_ratios(p, static_cast<std::size_t>(reference));
    out[p] = PeriodAlpha{.period = static_cast<telemetry::DayPeriod>(p),
                         .latency_ms = accumulator.alpha_bin_centers(),
                         .alpha = std::move(ratios.ratio),
                         .valid = std::move(ratios.valid),
                         .mean_alpha = ratios.used > 0 ? ratios.mean : 0.0,
                         .records = accumulator.records(p)};
  }
  return out;
}

TwoSlotExample normalize_two_slot_example(double day_count_low, double day_count_high,
                                          double day_frac_low, double day_frac_high,
                                          double night_count_low, double night_count_high,
                                          double night_frac_low, double night_frac_high) {
  TwoSlotExample out;
  // Naive pooling (what ignoring the confounder would conclude).
  out.naive_low = (day_count_low + night_count_low) / (day_frac_low + night_frac_low);
  out.naive_high = (day_count_high + night_count_high) / (day_frac_high + night_frac_high);
  // α per latency bin with "day" as reference, then averaged (§2.4.1).
  out.alpha_low = (night_count_low / night_frac_low) / (day_count_low / day_frac_low);
  out.alpha_high = (night_count_high / night_frac_high) / (day_count_high / day_frac_high);
  out.alpha = 0.5 * (out.alpha_low + out.alpha_high);
  // Normalized night counts and the pooled activity estimate.
  out.normalized_low = night_count_low / out.alpha;
  out.normalized_high = night_count_high / out.alpha;
  out.activity_low = (day_count_low + out.normalized_low) / (day_frac_low + night_frac_low);
  out.activity_high =
      (day_count_high + out.normalized_high) / (day_frac_high + night_frac_high);
  return out;
}

}  // namespace autosens::core
