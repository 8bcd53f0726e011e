#include "core/locality.h"

#include <algorithm>
#include <array>
#include <stdexcept>

#include "obs/trace.h"
#include "stats/correlation.h"
#include "stats/descriptive.h"

namespace autosens::core {

LocalityReport analyze_locality(const telemetry::Dataset& dataset,
                                const LocalityOptions& options, stats::Random& random) {
  if (dataset.empty()) throw std::invalid_argument("analyze_locality: empty dataset");
  if (options.window_ms <= 0) throw std::invalid_argument("analyze_locality: bad window");
  obs::Span span("locality_stats");
  span.attr("records", static_cast<std::int64_t>(dataset.size()));

  LocalityReport report;
  report.samples = dataset.size();
  const auto latencies = dataset.latencies();
  report.msd_mad_actual = stats::msd_mad_ratio(latencies);

  // Shuffled baseline: expectation of the ratio under exchangeability.
  // (The shuffle and sort need owned copies; the span itself is read-only.)
  std::vector<double> shuffled(latencies.begin(), latencies.end());
  double sum = 0.0;
  for (std::size_t s = 0; s < options.shuffles; ++s) {
    random.shuffle(std::span<double>(shuffled));
    sum += stats::msd_mad_ratio(shuffled);
  }
  report.msd_mad_shuffled = options.shuffles > 0 ? sum / static_cast<double>(options.shuffles)
                                                 : 0.0;

  // Sorted baseline: the most local arrangement possible.
  std::vector<double> sorted(latencies.begin(), latencies.end());
  std::sort(sorted.begin(), sorted.end());
  report.msd_mad_sorted = stats::msd_mad_ratio(sorted);

  // Density vs latency over fixed windows (§2.1, second prong).
  const auto times = dataset.times();
  const auto windows = stats::window_aggregate(times, latencies, dataset.begin_time(),
                                               dataset.end_time(), options.window_ms);
  const auto used = stats::nonempty_windows(windows, options.min_window_samples);
  report.windows_used = used.size();
  if (used.size() >= 2) {
    const auto counts = stats::window_counts(used);
    const auto means = stats::window_means(used);
    report.density_latency_correlation = stats::pearson(counts, means);

    // Detrend by hour-of-day: divide each window's count and latency by the
    // mean over all windows that fall in the same hour-of-day class.
    std::array<double, 24> count_sum{};
    std::array<double, 24> mean_sum{};
    std::array<std::size_t, 24> n{};
    std::vector<int> hour(used.size());
    for (std::size_t i = 0; i < used.size(); ++i) {
      hour[i] = telemetry::hour_of_day(used[i].window_begin);
      const auto h = static_cast<std::size_t>(hour[i]);
      count_sum[h] += counts[i];
      mean_sum[h] += means[i];
      ++n[h];
    }
    std::vector<double> det_counts;
    std::vector<double> det_means;
    det_counts.reserve(used.size());
    det_means.reserve(used.size());
    for (std::size_t i = 0; i < used.size(); ++i) {
      const auto h = static_cast<std::size_t>(hour[i]);
      const double c_base = count_sum[h] / static_cast<double>(n[h]);
      const double m_base = mean_sum[h] / static_cast<double>(n[h]);
      if (c_base <= 0.0 || m_base <= 0.0) continue;
      det_counts.push_back(counts[i] / c_base);
      det_means.push_back(means[i] / m_base);
    }
    if (det_counts.size() >= 2) {
      report.detrended_density_latency_correlation = stats::pearson(det_counts, det_means);
    }
  }
  return report;
}

ActivityLatencySeries activity_latency_series(const telemetry::Dataset& dataset,
                                              std::int64_t window_ms) {
  if (dataset.empty()) throw std::invalid_argument("activity_latency_series: empty dataset");
  const auto times = dataset.times();
  const auto latencies = dataset.latencies();
  const auto windows = stats::window_aggregate(times, latencies, dataset.begin_time(),
                                               dataset.end_time(), window_ms);
  ActivityLatencySeries series;
  series.window_begin_ms.reserve(windows.size());
  for (const auto& w : windows) series.window_begin_ms.push_back(w.window_begin);
  series.activity = stats::minmax_normalize(stats::window_counts(windows));
  series.latency = stats::minmax_normalize(stats::window_means(windows));
  return series;
}

}  // namespace autosens::core
