// The biased latency distribution B (§2.2): simply the histogram of the
// latencies of actions users actually performed — it reflects whatever bias
// users exert by acting more when latency is low.
#pragma once

#include <span>

#include "core/options.h"
#include "stats/histogram.h"
#include "telemetry/dataset.h"

namespace autosens::core {

/// Geometry helper: the latency histogram implied by `options`.
stats::Histogram make_latency_histogram(const AutoSensOptions& options);

/// B from raw latencies (unit weight each).
stats::Histogram biased_histogram(std::span<const double> latencies,
                                  const AutoSensOptions& options);

/// B from a dataset.
stats::Histogram biased_histogram(const telemetry::Dataset& dataset,
                                  const AutoSensOptions& options);

}  // namespace autosens::core
