// The unbiased latency distribution U (§2.2): the latency the service would
// have delivered at times unrelated to user activity. Estimated from the
// biased samples themselves by nearest-in-time sampling at uniformly random
// times — either literally (Monte Carlo, as in the paper) or via the exact
// Voronoi-cell expectation of that procedure.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/accumulator.h"
#include "core/options.h"
#include "stats/histogram.h"
#include "stats/rng.h"
#include "telemetry/dataset.h"

namespace autosens::core {

/// U over one window via the paper's Monte-Carlo procedure. `times` sorted
/// ascending, aligned with `latencies`; only samples' nearest-relation to
/// random times in the window matters, so samples may lie outside it.
stats::Histogram unbiased_histogram_mc(std::span<const std::int64_t> times,
                                       std::span<const double> latencies,
                                       TimeWindow window, const AutoSensOptions& options,
                                       stats::Random& random);

/// U over one window via exact Voronoi weights (deterministic).
stats::Histogram unbiased_histogram_voronoi(std::span<const std::int64_t> times,
                                            std::span<const double> latencies,
                                            TimeWindow window,
                                            const AutoSensOptions& options);

/// U over a sorted column view's own [begin, end) window, honoring
/// options.unbiased_method. The Voronoi branch is the estimator core's
/// global U (Accumulator::unbiased): a probability per bin.
stats::Histogram unbiased_histogram(telemetry::SampleColumns columns,
                                    const AutoSensOptions& options);

/// Dataset-level convenience over the dataset's own [begin, end) window,
/// honoring options.unbiased_method.
stats::Histogram unbiased_histogram(const telemetry::Dataset& dataset,
                                    const AutoSensOptions& options);

}  // namespace autosens::core
