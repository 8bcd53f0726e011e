// Canonical workload configurations for the paper reproduction, plus the
// planted-ground-truth helpers the benches compare against.
//
// Scales trade fidelity for runtime; all cover the structure every analysis
// needs (two 30-day "months", diurnal confounder, heterogeneous users).
#pragma once

#include <array>
#include <cstdint>

#include "simulate/config.h"
#include "stats/piecewise.h"

namespace autosens::simulate {

enum class Scale {
  kTiny,    ///< 3 days, 120 users — unit tests.
  kSmall,   ///< 14 days, 400 users — fast integration tests.
  kMedium,  ///< 60 days, 800 users — benches.
  kFull,    ///< 60 days, 2000 users — full reproduction run.
};

/// The OWA-like scenario of the paper's evaluation: two 30-day months
/// ("January" = days 0–29, "February" = days 30–59 at kMedium/kFull),
/// business + consumer users, four action types with planted preference
/// anchors matching the numbers reported in the paper.
WorkloadConfig paper_config(Scale scale, std::uint64_t seed = 42);

/// Activity-weighted mean of the per-period drop multipliers — the effective
/// period scale of an analysis that pools all hours (≈ 1.0 by default).
double pooled_period_scale(const WorkloadConfig& config);

/// Planted normalized-latency-preference curves AutoSens should recover,
/// normalized at `ref_ms` (the paper uses 300 ms):
/// pooled over hours and users of one class —
stats::PiecewiseLinearCurve expected_class_curve(const WorkloadConfig& config,
                                                 telemetry::ActionType type,
                                                 telemetry::UserClass user_class,
                                                 double ref_ms);
/// one 6-hour period (Fig 7) —
stats::PiecewiseLinearCurve expected_period_curve(const WorkloadConfig& config,
                                                  telemetry::ActionType type,
                                                  telemetry::UserClass user_class,
                                                  telemetry::DayPeriod period, double ref_ms);
/// one conditioning quartile (Fig 6; quartile in [0,4), 0 = fastest users).
stats::PiecewiseLinearCurve expected_quartile_curve(const WorkloadConfig& config,
                                                    telemetry::ActionType type,
                                                    telemetry::UserClass user_class,
                                                    int quartile, double ref_ms);

/// Planted time-based activity factor per period relative to the 8am–2pm
/// reference (Fig 8 ground truth): ratio of mean diurnal activity.
std::array<double, telemetry::kDayPeriodCount> expected_alpha_by_period(
    const WorkloadConfig& config);

}  // namespace autosens::simulate
