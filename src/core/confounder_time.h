// Mitigation of the time confounder (§2.4.1). User activity and latency are
// both functions of time-of-day; pooling hours naively can even invert the
// apparent preference (Table 1 of the paper). AutoSens therefore estimates a
// per-time-of-day-slot activity factor α and rescales each slot's action
// counts by 1/α before pooling.
//
// A "slot" is a time-of-day class (e.g. the 10:00–11:00 hour), pooled across
// all days of the data — α models *how active users are at that time of
// day*, not the traffic of one specific hour. Pooling across days is what
// separates the diurnal activity pattern from the transient latency
// fluctuations that carry the preference signal: a specific slow afternoon
// still contributes its (latency, action-count) evidence, it is only the
// systematic time-of-day activity level that is divided out.
//
// For a slot T and latency bin L, the temporal action rate is c_T(L)/f_T(L),
// where c is the action count and f the fraction of slot time at that
// latency (from the slot's unbiased distribution). α_{T,ref}(L) is the ratio
// of that rate to the reference slot's; α_T averages it over latency bins,
// and multiple reference slots are used in turn and averaged.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "core/accumulator.h"
#include "core/options.h"
#include "stats/histogram.h"
#include "telemetry/clock.h"
#include "telemetry/dataset.h"

namespace autosens::core {

class TimeNormalizer {
 public:
  /// Estimates α for every time-of-day slot. The dataset must be sorted and
  /// non-empty, and options.alpha_slot_ms must divide a day evenly; throws
  /// std::invalid_argument otherwise.
  TimeNormalizer(const telemetry::Dataset& dataset, const AutoSensOptions& options);

  /// Column variant for bootstrap replicates, selected samples and other
  /// sorted-by-construction columns. Precondition (not checked):
  /// columns.times sorted ascending.
  TimeNormalizer(telemetry::SampleColumns columns, const AutoSensOptions& options);

  /// One entry per time-of-day class (even classes without records).
  const std::vector<SlotStat>& slots() const noexcept { return slots_; }

  /// α of the time-of-day class containing `time_ms`.
  double alpha_at(std::int64_t time_ms) const noexcept;

  /// The α-normalized biased histogram: each record weighted 1/α of its
  /// slot, in the analysis bin width (options.bin_width_ms).
  stats::Histogram normalized_biased(const telemetry::Dataset& dataset) const;

  /// Column-view variant of normalized_biased (same math, same output).
  stats::Histogram normalized_biased(telemetry::SampleColumns columns) const;

 private:
  AutoSensOptions options_;
  std::vector<SlotStat> slots_;
};

/// α per 6-hour day period as a function of latency (paper Fig 8), with the
/// 8am–2pm period as reference. Also reports the per-period average α used
/// for normalization, supporting the paper's finding that α is flat across
/// latency bins.
struct PeriodAlpha {
  telemetry::DayPeriod period = telemetry::DayPeriod::kMorning;
  std::vector<double> latency_ms;   ///< α-bin centers.
  std::vector<double> alpha;        ///< α per bin (0 where invalid).
  std::vector<char> valid;
  double mean_alpha = 0.0;          ///< Average over valid bins.
  std::size_t records = 0;
};

std::array<PeriodAlpha, telemetry::kDayPeriodCount> alpha_by_period(
    const telemetry::Dataset& dataset, const AutoSensOptions& options,
    telemetry::DayPeriod reference = telemetry::DayPeriod::kMorning);

/// The daily windows of one 6-hour period across the data range (used for
/// period slicing and the per-period unbiased distributions).
std::vector<TimeWindow> period_windows(const telemetry::Dataset& dataset,
                                       telemetry::DayPeriod period);
/// The same over a data range [range.begin_ms, range.end_ms).
std::vector<TimeWindow> period_windows(TimeWindow range, telemetry::DayPeriod period);

/// The paper's Table 1 worked example: two slots ("day", "night") × two
/// latency bins ("low", "high"). Inputs are the action counts and the
/// fraction of slot time at each latency; outputs reproduce every number in
/// the table.
struct TwoSlotExample {
  double alpha_low = 0.0;        ///< α_{night,low}   (paper: 0.108).
  double alpha_high = 0.0;       ///< α_{night,high}  (paper: 0.100).
  double alpha = 0.0;            ///< α_night         (paper: 0.104).
  double normalized_low = 0.0;   ///< Night low count after 1/α (paper: 250).
  double normalized_high = 0.0;  ///< Night high count after 1/α (paper: 38).
  double activity_low = 0.0;     ///< Pooled rate at low latency (paper: 3.09).
  double activity_high = 0.0;    ///< Pooled rate at high latency (paper: 1.97).
  double naive_low = 0.0;        ///< Un-normalized pooled rate (paper: 1.04).
  double naive_high = 0.0;       ///< Un-normalized pooled rate (paper: 1.6).
};

TwoSlotExample normalize_two_slot_example(double day_count_low, double day_count_high,
                                          double day_frac_low, double day_frac_high,
                                          double night_count_low, double night_count_high,
                                          double night_frac_low, double night_frac_high);

}  // namespace autosens::core
