#include "core/sensitivity.h"

#include "core/biased.h"
#include "core/confounder_time.h"
#include "core/unbiased.h"
#include "obs/trace.h"
#include "stats/distance.h"

namespace autosens::core {

std::string_view to_string(SensitivityClass c) noexcept {
  switch (c) {
    case SensitivityClass::kInsensitive: return "insensitive";
    case SensitivityClass::kModerate: return "moderately sensitive";
    case SensitivityClass::kHigh: return "highly sensitive";
  }
  return "insensitive";
}

SensitivitySummary summarize(const PreferenceResult& preference) {
  SensitivitySummary summary;
  const auto drop_at = [&preference](double latency) {
    return preference.covers(latency) ? 1.0 - preference.at(latency) : 0.0;
  };
  summary.drop_at_500ms = drop_at(500.0);
  summary.drop_at_1000ms = drop_at(1000.0);
  summary.drop_at_2000ms = drop_at(2000.0);

  // Elasticity: secant slope from the reference to 1500 ms (or the end of
  // the supported range, whichever comes first).
  const double ref = preference.reference_latency_ms;
  double hi = 1500.0;
  if (!preference.covers(hi)) {
    hi = preference.latency_ms.empty() ? ref
                                       : preference.latency_ms[preference.support_end - 1];
  }
  if (preference.covers(ref) && preference.covers(hi) && hi > ref) {
    summary.slope_per_100ms =
        (preference.at(hi) - preference.at(ref)) / (hi - ref) * 100.0;
  }

  // First crossing below 0.8, scanned at bin resolution.
  for (std::size_t i = preference.support_begin; i < preference.support_end; ++i) {
    if (preference.latency_ms[i] >= ref && preference.normalized[i] < 0.8) {
      summary.latency_at_nlp_08 = preference.latency_ms[i];
      break;
    }
  }

  if (summary.drop_at_1000ms > 0.15) {
    summary.classification = SensitivityClass::kHigh;
  } else if (summary.drop_at_1000ms > 0.05) {
    summary.classification = SensitivityClass::kModerate;
  }
  return summary;
}

ScreeningReport screen(const telemetry::Dataset& dataset, const AutoSensOptions& options,
                       double min_distance) {
  obs::Span span("divergence");
  span.attr("records", static_cast<std::int64_t>(dataset.size()));
  // Honor the time-confounder setting: without α-normalization, the diurnal
  // activity/latency coupling largely cancels the divergence the preference
  // creates, and the screen would read "nothing here" on sensitive slices.
  auto biased = biased_histogram(dataset, options);
  if (options.normalize_time_confounder) {
    biased = TimeNormalizer(dataset, options).normalized_biased(dataset);
  }
  const auto unbiased = unbiased_histogram(dataset, options);
  ScreeningReport report;
  report.total_variation = stats::total_variation_distance(biased, unbiased);
  report.kolmogorov_smirnov = stats::ks_statistic(biased, unbiased);
  report.mean_shift_ms = stats::mean_shift(biased, unbiased);
  report.worth_analyzing = report.total_variation >= min_distance;
  return report;
}

}  // namespace autosens::core
