#include "core/pipeline.h"

#include <stdexcept>

#include "core/biased.h"
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
  obs::Histogram& biased_ms = obs::registry().histogram(
      "autosens_stage_latency_ms{stage=\"biased\"}",
      "Per-stage pipeline latency (milliseconds)");
  obs::Histogram& alpha_ms = obs::registry().histogram(
      "autosens_stage_latency_ms{stage=\"alpha_normalize\"}",
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

const char* unbiased_method_name(const AutoSensOptions& options) {
  return options.unbiased_method == UnbiasedMethod::kMonteCarlo ? "mc" : "voronoi";
}

/// The shared core of every analysis run over a sorted column view: the two
/// estimator fills, the preference curve, and the run bookkeeping.
/// `unbiased_fn(span)` supplies the U estimate under the "unbiased" span,
/// tagged with `method` (the Dataset path routes it through the memoized
/// Voronoi weights, the view path computes directly, the windowed path
/// fills per window).
template <typename UnbiasedFn>
AnalysisResult analyze_columns(telemetry::SampleColumns columns,
                               const AutoSensOptions& options, const char* method,
                               const UnbiasedFn& unbiased_fn) {
  metrics().records.inc(columns.size());

  // B, α-normalized when enabled.
  std::vector<SlotStat> slots;
  stats::Histogram biased = [&] {
    if (options.normalize_time_confounder) {
      obs::Span span("alpha_normalize", &metrics().alpha_ms);
      const TimeNormalizer normalizer(columns, options);
      slots = normalizer.slots();
      span.attr("slots", static_cast<std::int64_t>(slots.size()));
      return normalizer.normalized_biased(columns);
    }
    obs::Span span("biased_fill", &metrics().biased_ms);
    return biased_histogram(columns.latencies, options);
  }();

  stats::Histogram unbiased = [&] {
    obs::Span span("unbiased", &metrics().unbiased_ms);
    span.attr("method", method);
    return unbiased_fn(span);
  }();

  auto preference = [&] {
    obs::Span span("preference", &metrics().preference_ms);
    return compute_preference(biased, unbiased, options);
  }();
  // The α-normalization rescales weights; report the actual record count.
  preference.biased_samples = columns.size();
  metrics().runs.inc();
  if (obs::enabled()) {
    // Readiness for /healthz: the analysis pipeline has produced at least
    // one result since instrumentation came up.
    obs::Health::global().set_component(
        "pipeline", true, "runs=" + std::to_string(metrics().runs.value()));
  }
  return AnalysisResult{.preference = std::move(preference),
                        .biased = std::move(biased),
                        .unbiased = std::move(unbiased),
                        .slots = std::move(slots)};
}

}  // namespace

AnalysisResult analyze_detailed(const telemetry::Dataset& dataset,
                                const AutoSensOptions& options) {
  if (dataset.empty()) throw std::invalid_argument("analyze: empty dataset");
  if (!dataset.is_sorted()) throw std::invalid_argument("analyze: dataset not sorted");
  return analyze_columns(dataset.columns(), options, unbiased_method_name(options),
                         [&](obs::Span&) { return unbiased_histogram(dataset, options); });
}

PreferenceResult analyze(const telemetry::Dataset& dataset, const AutoSensOptions& options) {
  return analyze_detailed(dataset, options).preference;
}

AnalysisResult analyze_detailed(const telemetry::DatasetView& view,
                                const AutoSensOptions& options) {
  if (view.empty()) throw std::invalid_argument("analyze: empty dataset");
  const auto columns = view.columns();
  return analyze_columns(columns, options, unbiased_method_name(options),
                         [&](obs::Span&) { return unbiased_histogram(columns, options); });
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
  return analyze_columns(dataset.columns(), options, "windows", [&](obs::Span& span) {
    span.attr("windows", static_cast<std::int64_t>(windows.size()));
    return unbiased_histogram_over_windows_sorted(dataset.times(), dataset.latencies(),
                                                  windows, options.bin_width_ms,
                                                  options.max_latency_ms, options.threads);
  });
}

}  // namespace autosens::core
