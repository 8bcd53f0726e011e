// Bootstrap confidence intervals for preference curves. The paper reports
// point estimates; production users need to know whether a measured drop is
// signal or estimation noise.
//
// Resampling scheme: a DAY-BLOCK bootstrap. Records are grouped by calendar
// day and whole days are resampled with replacement (each drawn day's
// records are re-timestamped onto a fresh sequential day, preserving
// time-of-day). Resampling individual records would shred the temporal
// structure that the unbiased estimator and the α-normalization depend on;
// whole days keep the diurnal pattern and the intra-day AR correlation
// intact while treating days — which are essentially independent at the
// process's ~30-minute correlation time — as the exchangeable unit.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/options.h"
#include "core/preference.h"
#include "stats/bootstrap.h"
#include "stats/rng.h"
#include "telemetry/dataset.h"

namespace autosens::core {

struct ConfidenceOptions {
  std::size_t replicates = 50;
  double confidence = 0.90;
};

/// A preference curve with per-probe-latency percentile intervals.
struct PreferenceWithConfidence {
  PreferenceResult point;               ///< Estimate on the full dataset.
  std::vector<double> probe_latency_ms; ///< Latencies the CIs cover.
  std::vector<stats::Interval> intervals;
  std::size_t usable_replicates = 0;    ///< Replicates that produced a curve.
};

/// One bootstrap replicate: its own time and latency columns, sorted.
struct Resample {
  telemetry::Column<std::int64_t> times;
  telemetry::Column<double> latencies;

  telemetry::SampleColumns columns() const noexcept { return {times, latencies}; }
};

/// A day-block resample of `columns`: one slot per non-empty day, each
/// filled with a uniformly drawn day's samples shifted onto the slot's day
/// (time-of-day kept), so slot-major order is time-sorted and needs no sort.
/// Days with no samples are squeezed out (slots re-base onto sequential
/// days starting at day 0). The columns are written once, in slot order.
/// Throws std::invalid_argument on empty, misaligned or unsorted columns.
Resample day_block_resample(telemetry::SampleColumns columns, stats::Random& random);

/// Run AutoSens on `columns` (sorted, as day_block_resample requires) and
/// attach bootstrap intervals at `probe_latencies`. Replicates whose
/// resample cannot support a curve (or does not cover a probe) contribute
/// nothing at that probe. Throws like analyze() and day_block_resample().
PreferenceWithConfidence analyze_with_confidence(telemetry::SampleColumns columns,
                                                 const AutoSensOptions& options,
                                                 std::vector<double> probe_latencies,
                                                 const ConfidenceOptions& confidence,
                                                 stats::Random& random);

}  // namespace autosens::core
