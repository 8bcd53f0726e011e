#include "core/pipeline.h"

#include <optional>
#include <stdexcept>

#include "obs/health.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace autosens::core {
namespace {

/// Pre-registered pipeline instrumentation handles (one relaxed atomic add
/// per use once registered; see DESIGN.md "Observability").
struct PipelineMetrics {
  obs::Counter& runs = obs::registry().counter(
      "autosens_pipeline_runs_total", "Completed analyze()/analyze_over_windows() runs");
  obs::Counter& records = obs::registry().counter(
      "autosens_pipeline_records_total", "Records entering the analysis pipeline");
  obs::Histogram& accumulate_ms = obs::registry().histogram(
      "autosens_stage_latency_ms{stage=\"accumulate\"}",
      "Per-stage pipeline latency (milliseconds)");
  obs::Histogram& unbiased_ms = obs::registry().histogram(
      "autosens_stage_latency_ms{stage=\"unbiased\"}",
      "Per-stage pipeline latency (milliseconds)");
  obs::Histogram& preference_ms = obs::registry().histogram(
      "autosens_stage_latency_ms{stage=\"preference\"}",
      "Per-stage pipeline latency (milliseconds)");
};

PipelineMetrics& metrics() {
  static PipelineMetrics handles;
  return handles;
}

/// The shared core of every analysis run over a sorted column view: one
/// accumulator pass, the Monte-Carlo U when options ask for it (whole-range
/// runs only), the finished curve, and the run bookkeeping.
AnalysisResult analyze_columns(telemetry::SampleColumns columns,
                               std::span<const TimeWindow> windows,
                               const AutoSensOptions& options) {
  metrics().records.inc(columns.size());
  const auto accumulator = [&] {
    obs::Span span("accumulate", &metrics().accumulate_ms);
    span.attr("records", static_cast<std::int64_t>(columns.size()));
    span.attr("windows", static_cast<std::int64_t>(windows.size()));
    return Accumulator::fill(columns, ClassGrid::kSlot, options, windows);
  }();
  std::optional<stats::Histogram> monte_carlo;
  if (windows.empty() && options.unbiased_method == UnbiasedMethod::kMonteCarlo) {
    obs::Span span("unbiased", &metrics().unbiased_ms);
    span.attr("method", "mc");
    monte_carlo = unbiased_histogram(columns, options);
  }
  auto result = [&] {
    obs::Span span("preference", &metrics().preference_ms);
    return accumulator.finish(std::move(monte_carlo));
  }();
  metrics().runs.inc();
  if (obs::enabled()) {
    // Readiness for /healthz: the analysis pipeline has produced at least
    // one result since instrumentation came up.
    obs::Health::global().set_component(
        "pipeline", true, "runs=" + std::to_string(metrics().runs.value()));
  }
  return result;
}

}  // namespace

AnalysisResult analyze_detailed(const telemetry::Dataset& dataset,
                                const AutoSensOptions& options) {
  if (dataset.empty()) throw std::invalid_argument("analyze: empty dataset");
  if (!dataset.is_sorted()) throw std::invalid_argument("analyze: dataset not sorted");
  return analyze_columns(dataset.columns(), {}, options);
}

PreferenceResult analyze(const telemetry::Dataset& dataset, const AutoSensOptions& options) {
  return analyze_detailed(dataset, options).preference;
}

AnalysisResult analyze_detailed(const telemetry::DatasetView& view,
                                const AutoSensOptions& options) {
  if (view.empty()) throw std::invalid_argument("analyze: empty dataset");
  return analyze_columns(view.columns(), {}, options);
}

PreferenceResult analyze(const telemetry::DatasetView& view, const AutoSensOptions& options) {
  return analyze_detailed(view, options).preference;
}

AnalysisResult analyze_over_windows(const telemetry::Dataset& dataset,
                                    std::span<const TimeWindow> windows,
                                    const AutoSensOptions& options) {
  if (dataset.empty()) throw std::invalid_argument("analyze_over_windows: empty dataset");
  if (!dataset.is_sorted()) {
    throw std::invalid_argument("analyze_over_windows: dataset not sorted");
  }
  if (windows.empty()) throw std::invalid_argument("analyze_over_windows: no windows");
  return analyze_columns(dataset.columns(), windows, options);
}

}  // namespace autosens::core
