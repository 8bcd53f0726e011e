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

namespace autosens::core {

/// Run AutoSens on a sorted, scrubbed dataset whose observation window is
/// the dataset's own [begin, end) range. Throws std::invalid_argument on
/// empty input or an unsupported reference latency.
AnalysisResult analyze_detailed(const telemetry::Dataset& dataset,
                                const AutoSensOptions& options);

/// Convenience: just the preference curve.
PreferenceResult analyze(const telemetry::Dataset& dataset, const AutoSensOptions& options);

/// Run AutoSens on bare time/latency columns — the rows a select pass kept
/// (telemetry/select.h) — without a Dataset around them. Byte-identical to
/// analyze_detailed on a Dataset holding the same rows. Throws
/// std::invalid_argument on empty columns, on times that go backwards (the
/// accumulator's fill checks as it goes) or an unsupported reference
/// latency.
AnalysisResult analyze_detailed(telemetry::SampleColumns columns, const AutoSensOptions& options);
PreferenceResult analyze(telemetry::SampleColumns columns, const AutoSensOptions& options);

/// Finish statistics accumulated elsewhere — a store window stitches them
/// from partition summaries and row stretches — with the Monte-Carlo U,
/// spans and run bookkeeping of analyze_detailed. With
/// UnbiasedMethod::kMonteCarlo, `columns` must hold every sample the
/// statistics saw (the draws need the samples); otherwise it is unused.
AnalysisResult analyze_accumulated(const Accumulator& accumulator,
                                   telemetry::SampleColumns columns,
                                   const AutoSensOptions& options);

/// Run AutoSens on a dataset observed only during `windows` (sorted,
/// disjoint) — e.g. the daily 6-hour chunks of a time-of-day slice (§3.6).
/// The unbiased distribution is estimated within each window to avoid the
/// huge artificial Voronoi cells a gap would create; α still conditions on
/// the time-of-day grid over the dataset's own range.
AnalysisResult analyze_over_windows(const telemetry::Dataset& dataset,
                                    std::span<const TimeWindow> windows,
                                    const AutoSensOptions& options);
/// The same over bare time/latency columns (unsorted times throw).
AnalysisResult analyze_over_windows(telemetry::SampleColumns columns,
                                    std::span<const TimeWindow> windows,
                                    const AutoSensOptions& options);

}  // namespace autosens::core
