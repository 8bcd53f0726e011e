// The end-to-end AutoSens pipeline: dataset → (α-normalized) biased
// distribution + unbiased distribution → smoothed, normalized latency
// preference. This is the primary entry point of the library.
#pragma once

#include <vector>

#include "core/accumulator.h"
#include "core/confounder_time.h"
#include "core/options.h"
#include "core/preference.h"
#include "core/unbiased.h"
#include "stats/histogram.h"
#include "telemetry/dataset.h"
#include "telemetry/dataset_view.h"

namespace autosens::core {

/// Run AutoSens on a sorted, scrubbed dataset whose observation window is
/// the dataset's own [begin, end) range. Throws std::invalid_argument on
/// empty input or an unsupported reference latency.
AnalysisResult analyze_detailed(const telemetry::Dataset& dataset,
                                const AutoSensOptions& options);

/// Convenience: just the preference curve.
PreferenceResult analyze(const telemetry::Dataset& dataset, const AutoSensOptions& options);

/// Run AutoSens on a bootstrap view (day_block_resample output) without
/// materializing a Dataset: the estimators stream the view's shifted
/// columns. Identical math — a view and its materialize()d dataset produce
/// byte-identical results.
AnalysisResult analyze_detailed(const telemetry::DatasetView& view,
                                const AutoSensOptions& options);
PreferenceResult analyze(const telemetry::DatasetView& view, const AutoSensOptions& options);

/// Run AutoSens on a dataset observed only during `windows` (sorted,
/// disjoint) — e.g. the daily 6-hour chunks of a time-of-day slice (§3.6).
/// The unbiased distribution is estimated within each window to avoid the
/// huge artificial Voronoi cells a gap would create; α still conditions on
/// the time-of-day grid over the dataset's own range.
AnalysisResult analyze_over_windows(const telemetry::Dataset& dataset,
                                    std::span<const TimeWindow> windows,
                                    const AutoSensOptions& options);

}  // namespace autosens::core
